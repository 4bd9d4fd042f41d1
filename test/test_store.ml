(* Tests for the synopsis store: registry behaviour, binary persistence
   (bit-identical rehydration, typed rejection of bad files) and the LRU
   synopsis cache. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let tables =
  lazy
    (let a = table_of_counts [ (1, 12); (2, 7); (3, 20) ] in
     let b = table_of_counts [ (1, 5); (2, 16); (3, 4) ] in
     let fk = table_of_counts [ (1, 3); (2, 2); (3, 4) ] in
     let pk = table_of_counts (List.init 10 (fun i -> (i, 1))) in
     [ ("a", a); ("b", b); ("fk", fk); ("pk", pk) ])

let table name = List.assoc name (Lazy.force tables)

let resolve_table name =
  match List.assoc_opt name (Lazy.force tables) with
  | Some t -> t
  | None -> raise Not_found

(* The serving reads' whole-table adapter over a resolver. *)
let adapter resolve : Table.row_reader =
 fun name -> Table.read_rows (resolve name)

(* The same four tables as CSV files, for the CSV row reader: a store
   over them names each by its path. *)
let csv_dir =
  lazy
    (let dir = Filename.temp_dir "repro-store" "" in
     List.iter
       (fun (name, t) -> Csv_io.write (Filename.concat dir (name ^ ".csv")) t)
       (Lazy.force tables);
     at_exit (fun () ->
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir);
         Sys.rmdir dir);
     dir)

let csv name = Filename.concat (Lazy.force csv_dir) (name ^ ".csv")

let build_store () =
  let store = Csdl.Store.create () in
  let register key ta tb spec =
    let profile = Csdl.Profile.of_tables (table ta) "k" (table tb) "k" in
    let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis
  in
  register "a-b" "a" "b" (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
  register "pk-fk" "pk" "fk" Csdl.Spec.cs2l;
  store

let test_store_registry () =
  let store = build_store () in
  Alcotest.(check (list string)) "keys" [ "a-b"; "pk-fk" ] (Csdl.Store.keys store);
  Alcotest.(check bool) "mem" true (Csdl.Store.mem store "a-b");
  Alcotest.(check bool) "footprint positive" true (Csdl.Store.total_tuples store > 0);
  Csdl.Store.remove store "a-b";
  Alcotest.(check bool) "removed" false (Csdl.Store.mem store "a-b")

let test_store_estimate () =
  let store = build_store () in
  let estimate = Csdl.Store.estimate store ~key:"a-b" in
  Alcotest.(check bool) "positive estimate" true (estimate > 0.0);
  Alcotest.check_raises "unknown key" Not_found (fun () ->
      ignore (Csdl.Store.estimate store ~key:"nope"))

let test_store_estimate_orientation () =
  (* the pk-fk entry was registered with the PK table as side A; the
     estimator swaps internally, and the store must keep mapping pred_a to
     the PK table. A predicate selecting no PK rows must zero the
     estimate. *)
  let store = build_store () in
  let unfiltered = Csdl.Store.estimate store ~key:"pk-fk" in
  Alcotest.(check bool) "unfiltered positive" true (unfiltered > 0.0);
  let none = Csdl.Store.estimate store ~key:"pk-fk" ~pred_a:Predicate.False in
  Alcotest.(check (float 0.0)) "impossible pred on A zeroes" 0.0 none

(* ---------------- persistence ---------------- *)

let with_saved_store f =
  let store = build_store () in
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      f store path)

let test_store_roundtrip () =
  with_saved_store (fun store path ->
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check (list string)) "keys preserved" (Csdl.Store.keys store)
        (Csdl.Store.keys back);
      Alcotest.(check int) "footprint preserved"
        (Csdl.Store.total_tuples store)
        (Csdl.Store.total_tuples back);
      List.iter
        (fun key ->
          let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
          let before = Csdl.Store.estimate store ~key ~pred_a:pred in
          let after = Csdl.Store.estimate back ~key ~pred_a:pred in
          (* bit-identical, not approximately equal: the decoder rebuilds
             the sample hashtables in their original iteration order, so
             even float summation order is preserved *)
          if before <> after then
            Alcotest.failf "%s estimate drifted: %h vs %h" key before after)
        (Csdl.Store.keys store))

(* The tentpole guarantee: serialize -> deserialize -> estimate is
   bit-identical to estimating against the freshly drawn synopsis, for
   every variant, at more than one theta. *)
let variant_estimators =
  [
    ("csdl(1,diff)", fun ~theta profile ->
      Csdl.Estimator.prepare
        (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
        ~theta profile);
    ("csdl(t,diff)", fun ~theta profile ->
      Csdl.Estimator.prepare
        (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
        ~theta profile);
    ("csdl-opt", fun ~theta profile -> Csdl.Opt.prepare ~theta profile);
    ("cs2", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cs2 ~theta profile);
    ("cso", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cso ~theta profile);
    ("cs2l", fun ~theta profile ->
      Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile);
  ]

let test_roundtrip_bit_identical_all_variants () =
  let pred_a = Predicate.Compare (Predicate.Lt, "attr", Value.Int 9) in
  let pred_b = Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, prepare) ->
          let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
          let estimator = prepare ~theta profile in
          let synopsis = Csdl.Estimator.draw estimator (Prng.create 42) in
          let store = Csdl.Store.create () in
          Csdl.Store.add store ~key:"q" ~table_a:"a" ~table_b:"b" estimator
            synopsis;
          let fresh = Csdl.Store.estimate store ~key:"q" ~pred_a ~pred_b in
          let path = Filename.temp_file "repro" ".synopses" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Csdl.Store.save store path;
              let back = Csdl.Store.load ~resolve_table path in
              let thawed = Csdl.Store.estimate back ~key:"q" ~pred_a ~pred_b in
              if fresh <> thawed then
                Alcotest.failf "%s theta=%g: %h <> %h after roundtrip" name
                  theta fresh thawed))
        variant_estimators)
    [ 0.5; 1.0 ]

(* ---------------- flat hot path vs legacy reference ---------------- *)

(* A transcription of the pre-flat online estimator: per-value iteration
   over the semijoin side, [Value.Tbl.find_opt] back into the first side
   per value, the predicate re-evaluated through [Sample.filtered_count].
   Values are visited in the canonical [Shard_key] order — the one order
   every float accumulation uses since the sharded-synopsis refactor. The
   production path ([Estimate.run_checked_flat], a linear pass over Synopsis_flat
   columns since the columnar refactor) must agree bit for bit — same
   scan order, same float accumulation order, same zero-count guards. *)
let legacy_reference_estimate ~pred_a ~pred_b (synopsis : Csdl.Synopsis.t) =
  let open Csdl in
  let compile_for (sample : Sample.t) = function
    | Predicate.True -> fun (_ : Value.t array) -> true
    | p -> Predicate.compile p (Table.schema sample.Sample.table)
  in
  let filter_entry sample pass entry =
    ( Sample.filtered_count sample pass entry,
      Sample.sentry_passes sample pass entry )
  in
  let indicator b = if b then 1.0 else 0.0 in
  let { Synopsis.resolved; sample_a; sample_b; n_prime } = synopsis in
  let sentry_spec = resolved.Budget.spec.Spec.sentry in
  let pass_a = compile_for sample_a pred_a in
  let pass_b = compile_for sample_b pred_b in
  let b_factor (count, sentry) ~u_v =
    let scaled = if count = 0 then 0.0 else float_of_int count /. u_v in
    if sentry_spec then scaled +. indicator sentry else scaled
  in
  match resolved.Budget.spec.Spec.method_ with
  | Spec.Scaling ->
      let total = ref 0.0 in
      List.iter
        (fun (v, (entry_b : Sample.entry)) ->
          match Value.Tbl.find_opt sample_a.Sample.entries v with
          | None -> ()
          | Some entry_a ->
              let a_count, a_sentry = filter_entry sample_a pass_a entry_a in
              let fb = filter_entry sample_b pass_b entry_b in
              let a_scaled =
                if a_count = 0 then 0.0
                else float_of_int a_count /. entry_a.Sample.q_v
              in
              let a_term =
                if sentry_spec then a_scaled +. indicator a_sentry
                else a_scaled
              in
              let b_term = b_factor fb ~u_v:entry_b.Sample.q_v in
              let term = a_term *. b_term /. entry_a.Sample.p_v in
              if term > 0.0 then total := !total +. term)
        (Shard_key.sorted_bindings sample_b.Sample.entries);
      !total
  | Spec.Discrete_learning ->
      let base_q = resolved.Budget.base_q in
      let filtered_a =
        Value.Tbl.create (Value.Tbl.length sample_a.Sample.entries)
      in
      let filtered_tuples = ref 0 in
      let virtual_counts = ref [] in
      List.iter
        (fun (v, (entry : Sample.entry)) ->
          let ((count, sentry) as f) = filter_entry sample_a pass_a entry in
          Value.Tbl.add filtered_a v f;
          filtered_tuples :=
            !filtered_tuples + count + (if sentry then 1 else 0);
          if count > 0 && entry.Sample.q_v > 0.0 then
            let virtual_count =
              float_of_int count *. (base_q /. entry.Sample.q_v)
            in
            if virtual_count > 0.0 then
              virtual_counts := virtual_count :: !virtual_counts)
        (Shard_key.sorted_bindings sample_a.Sample.entries);
      let total_tuples = Sample.total_tuples sample_a in
      if total_tuples = 0 then 0.0
      else begin
        let selectivity =
          float_of_int !filtered_tuples /. float_of_int total_tuples
        in
        let learned = Discrete_learning.learn (Array.of_list !virtual_counts) in
        let virtual_population =
          if sentry_spec then
            Float.max 0.0
              (n_prime -. float_of_int (Sample.sentry_count sample_a))
          else n_prime
        in
        let n_filtered = virtual_population *. selectivity in
        let total = ref 0.0 in
        List.iter
          (fun (v, (entry_b : Sample.entry)) ->
            match Value.Tbl.find_opt filtered_a v with
            | None -> ()
            | Some (a_count, a_sentry) ->
                let entry_a = Value.Tbl.find sample_a.Sample.entries v in
                let x_v =
                  if a_count = 0 || entry_a.Sample.q_v <= 0.0 then 0.0
                  else
                    Discrete_learning.probability_of_count learned
                      (float_of_int a_count *. (base_q /. entry_a.Sample.q_v))
                in
                let a_term =
                  x_v *. n_filtered
                  +. (if sentry_spec then indicator a_sentry else 0.0)
                in
                let fb = filter_entry sample_b pass_b entry_b in
                let b_term = b_factor fb ~u_v:entry_b.Sample.q_v in
                let term = a_term *. b_term /. entry_a.Sample.p_v in
                if term > 0.0 then total := !total +. term)
          (Shard_key.sorted_bindings sample_b.Sample.entries);
        !total
      end

let test_flat_matches_legacy_reference () =
  let preds =
    [
      (Predicate.True, Predicate.True);
      ( Predicate.Compare (Predicate.Lt, "attr", Value.Int 9),
        Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) );
      (Predicate.Compare (Predicate.Le, "attr", Value.Int 4), Predicate.True);
    ]
  in
  List.iter
    (fun theta ->
      List.iter
        (fun (name, prepare) ->
          let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
          let estimator = prepare ~theta profile in
          let synopsis = Csdl.Estimator.draw estimator (Prng.create 42) in
          List.iter
            (fun (pred_a, pred_b) ->
              let flat =
                Csdl.Estimate.(
                  value
                    (run_checked_flat ~pred_a ~pred_b
                       (Csdl.Synopsis_flat.of_synopsis synopsis)))
                |> Csdl.Fault.get_ok
              in
              let reference =
                legacy_reference_estimate ~pred_a ~pred_b synopsis
              in
              if flat <> reference then
                Alcotest.failf "%s theta=%g: flat %h <> legacy reference %h"
                  name theta flat reference)
            preds)
        variant_estimators)
    [ 0.5; 1.0 ]

(* Structural validation is memoized on the flat view: registration and
   load each validate once, and no amount of estimates re-walks the
   synopsis — the per-request O(synopsis) validation waste the refactor
   removed, pinned via the global validation counter. *)
let test_validation_runs_once_per_load () =
  let runs () = Csdl.Synopsis_flat.validation_runs () in
  let c0 = runs () in
  let store = build_store () in
  Alcotest.(check int) "one validation per registered synopsis" 2 (runs () - c0);
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check int) "one more per loaded synopsis" 4 (runs () - c0);
      let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
      List.iter
        (fun key ->
          for _ = 1 to 5 do
            ignore (Csdl.Store.estimate back ~key ~pred_a:pred)
          done)
        (Csdl.Store.keys back);
      Alcotest.(check int) "estimates never re-validate" 4 (runs () - c0))

(* [Sample.sentry_count] is precomputed at draw time and recomputed at
   decode; both must agree with a fold over the entries. *)
let test_sentry_count_precomputed () =
  let count_by_fold (s : Csdl.Sample.t) =
    Value.Tbl.fold
      (fun _ (e : Csdl.Sample.entry) acc ->
        match e.Csdl.Sample.sentry_row with Some _ -> acc + 1 | None -> acc)
      s.Csdl.Sample.entries 0
  in
  let check_sample what s =
    Alcotest.(check int) what (count_by_fold s) (Csdl.Sample.sentry_count s)
  in
  List.iter
    (fun (name, prepare) ->
      let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
      let estimator = prepare ~theta:0.5 profile in
      let synopsis = Csdl.Estimator.draw estimator (Prng.create 9) in
      check_sample (name ^ ": drawn side A") synopsis.Csdl.Synopsis.sample_a;
      check_sample (name ^ ": drawn side B") synopsis.Csdl.Synopsis.sample_b;
      let swapped =
        synopsis.Csdl.Synopsis.sample_a.Csdl.Sample.table == table "b"
      in
      let stored =
        {
          Csdl.Synopsis_store.key = "s";
          table_a = "a";
          table_b = "b";
          swapped;
          fingerprint_a = Table.fingerprint (table "a");
          fingerprint_b = Table.fingerprint (table "b");
          prng_key = "";
          shards = 1;
          sentinels = [];
          synopsis;
        }
      in
      match
        Csdl.Synopsis_store.decode ~resolve_table
          (Csdl.Synopsis_store.encode [ stored ])
      with
      | Error e ->
          Alcotest.failf "%s: decode failed: %s" name
            (Csdl.Fault.error_to_string e)
      | Ok [ back ] ->
          check_sample (name ^ ": decoded side A")
            back.Csdl.Synopsis_store.synopsis.Csdl.Synopsis.sample_a;
          check_sample (name ^ ": decoded side B")
            back.Csdl.Synopsis_store.synopsis.Csdl.Synopsis.sample_b
      | Ok stored ->
          Alcotest.failf "%s: expected 1 stored synopsis, got %d" name
            (List.length stored))
    variant_estimators

let test_prng_key_and_info_roundtrip () =
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  (* theta = 1 samples every tuple, so i_tuples > 0 holds on any stream *)
  let estimator = Csdl.Opt.prepare ~theta:1.0 profile in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 3) in
  let store = Csdl.Store.create () in
  Csdl.Store.add ~prng_key:"3:synopsis/a-b" store ~key:"a-b" ~table_a:"a"
    ~table_b:"b" estimator synopsis;
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let back = Csdl.Store.load ~resolve_table path in
      match Csdl.Store.info back "a-b" with
      | None -> Alcotest.fail "info missing after roundtrip"
      | Some i ->
          Alcotest.(check string) "prng key" "3:synopsis/a-b"
            i.Csdl.Store.i_prng_key;
          Alcotest.(check string) "table a" "a" i.Csdl.Store.i_table_a;
          Alcotest.(check string) "table b" "b" i.Csdl.Store.i_table_b;
          Alcotest.(check (float 0.0)) "theta" 1.0 i.Csdl.Store.i_theta;
          Alcotest.(check bool) "tuples recorded" true
            (i.Csdl.Store.i_tuples > 0))

(* ---------------- typed rejection of bad files ---------------- *)

let patch_byte path offset f =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  Bytes.set b offset (f (Bytes.get b offset));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let expect_mismatch what ?(resolve = resolve_table) path =
  match Csdl.Store.load_result ~resolve_table:resolve path with
  | Error (Csdl.Fault.Store_mismatch { what = w; _ }) ->
      Alcotest.(check string) "mismatch kind" what w
  | Error e ->
      Alcotest.failf "unexpected fault: %s" (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.fail "expected a Store_mismatch error"

let test_store_rejects_corrupted_payload () =
  with_saved_store (fun _ path ->
      (* flip one bit in the payload (header is 40 bytes) *)
      patch_byte path 45 (fun c -> Char.chr (Char.code c lxor 0x01));
      expect_mismatch "checksum" path)

let test_store_rejects_wrong_version () =
  with_saved_store (fun _ path ->
      (* the version i64 sits right after the 8-byte magic *)
      patch_byte path 8 (fun _ -> '\xf7');
      expect_mismatch "version" path)

let test_store_rejects_truncation () =
  with_saved_store (fun _ path ->
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      expect_mismatch "payload" path)

let test_store_rejects_fingerprint_mismatch () =
  with_saved_store (fun _ path ->
      (* same names, different data: "a" resolves to the fk table *)
      let resolve = function "a" -> table "fk" | name -> resolve_table name in
      expect_mismatch "fingerprint" ~resolve path)

let test_store_load_rejects_garbage () =
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a store";
      close_out oc;
      (match Csdl.Store.load ~resolve_table path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure");
      expect_mismatch "header" path)

let test_store_replace_same_key () =
  let store = build_store () in
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  let estimator =
    Csdl.Estimator.prepare (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
      ~theta:0.5 profile
  in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 9) in
  Csdl.Store.add store ~key:"a-b" ~table_a:"a" ~table_b:"b" estimator synopsis;
  Alcotest.(check int) "still two keys" 2 (List.length (Csdl.Store.keys store))

(* ---------------- sampled row indices ---------------- *)

(* A row index past the end of its resolved table passes every checksum
   (the encoder wrote it faithfully) and would crash the first estimate
   that reads it; the decoder must reject it as a typed fault, whether
   the whole store or just that entry is read. *)
let test_rejects_out_of_range_rows () =
  let corruptions =
    [
      ( "row past the table",
        fun (sample : Csdl.Sample.t) ->
          let _, (e : Csdl.Sample.entry) =
            List.find
              (fun (_, (e : Csdl.Sample.entry)) -> Array.length e.rows > 0)
              (Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries)
          in
          e.Csdl.Sample.rows.(0) <- Table.cardinality sample.Csdl.Sample.table
      );
      ( "negative sentry",
        fun (sample : Csdl.Sample.t) ->
          let v, (e : Csdl.Sample.entry) =
            List.hd (Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries)
          in
          Value.Tbl.replace sample.Csdl.Sample.entries v
            { e with Csdl.Sample.sentry_row = Some (-1) } );
    ]
  in
  List.iter
    (fun (what, corrupt) ->
      let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
      (* theta = 1 samples every tuple: both samples are non-empty *)
      let estimator = Csdl.Opt.prepare ~theta:1.0 profile in
      let synopsis = Csdl.Estimator.draw estimator (Prng.create 5) in
      corrupt synopsis.Csdl.Synopsis.sample_a;
      let stored ~name =
        {
          Csdl.Synopsis_store.key = "q";
          table_a = name "a";
          table_b = name "b";
          swapped = Csdl.Estimator.swapped estimator;
          fingerprint_a = Table.fingerprint (table "a");
          fingerprint_b = Table.fingerprint (table "b");
          prng_key = "";
          shards = 1;
          sentinels = [];
          synopsis;
        }
      in
      let path = Filename.temp_file "repro" ".synopses" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let expect_row name = function
            | Error (Csdl.Fault.Store_mismatch { what = "row"; _ }) -> ()
            | Error e ->
                Alcotest.failf "%s, %s: expected a row fault, got %s" what
                  name (Csdl.Fault.error_to_string e)
            | Ok _ -> Alcotest.failf "%s, %s: decoded" what name
          in
          Csdl.Synopsis_store.write ~path [ stored ~name:Fun.id ];
          expect_row "read" (Csdl.Synopsis_store.read ~resolve_table ~path);
          expect_row "read_entry"
            (Csdl.Synopsis_store.read_entry ~read_rows:(adapter resolve_table)
               ~path ~key:"q");
          (* the CSV reader skips a row it does not have; the store, not
             the reader, names the fault *)
          Csdl.Synopsis_store.write ~path [ stored ~name:csv ];
          expect_row "read_entry, CSV reader"
            (Csdl.Synopsis_store.read_entry ~read_rows:Csv_io.read_rows ~path
               ~key:"q");
          expect_row "read_served, CSV reader"
            (Csdl.Synopsis_store.read_served ~read_rows:Csv_io.read_rows ~path)))
    corruptions

(* ---------------- per-entry read ---------------- *)

(* Three entries: a plain one, one the estimator stores swapped (the PK
   side is user-facing A) and a self-join, persisted at [shards]. *)
let multi_entry_image ?(name = Fun.id) ~shards () =
  let store = Csdl.Store.create () in
  let register key ta tb spec =
    let profile = Csdl.Profile.of_tables (table ta) "k" (table tb) "k" in
    let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add ~shards store ~key ~table_a:(name ta) ~table_b:(name tb)
      estimator synopsis
  in
  register "a-a" "a" "a" (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff);
  register "a-b" "a" "b" (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
  register "pk-fk" "pk" "fk" Csdl.Spec.cs2l;
  let swapped key =
    match Csdl.Store.info store key with
    | Some i -> i.Csdl.Store.i_swapped
    | None -> Alcotest.failf "fixture: %s missing" key
  in
  Alcotest.(check bool) "fixture: pk-fk is stored swapped" true
    (swapped "pk-fk");
  Alcotest.(check bool) "fixture: a-b is not" false (swapped "a-b");
  let path = Filename.temp_file "repro" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let ic = open_in_bin path in
      let image = really_input_string ic (in_channel_length ic) in
      close_in ic;
      image)

let entry_keys =
  [ ("a-a", [ "a" ]); ("a-b", [ "a"; "b" ]); ("pk-fk", [ "fk"; "pk" ]) ]

let flat_estimates (s : Csdl.Synopsis_store.stored) =
  let flat = Csdl.Synopsis_flat.of_synopsis s.Csdl.Synopsis_store.synopsis in
  List.map
    (fun (pred_a, pred_b) ->
      let pred_a, pred_b =
        if s.Csdl.Synopsis_store.swapped then (pred_b, pred_a)
        else (pred_a, pred_b)
      in
      Csdl.Fault.get_ok
        Csdl.Estimate.(value (run_checked_flat ~pred_a ~pred_b flat)))
    [
      (Predicate.True, Predicate.True);
      ( Predicate.Compare (Predicate.Lt, "attr", Value.Int 9),
        Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) );
      (Predicate.Compare (Predicate.Le, "attr", Value.Int 4), Predicate.True);
    ]

(* The serving per-key read of an image, through one reused file. *)
let image_path =
  lazy
    (let path = Filename.temp_file "repro" ".synopses" in
     at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
     path)

let write_image image =
  let path = Lazy.force image_path in
  Out_channel.with_open_bin path (fun oc -> output_string oc image);
  path

let read_entry_image ?(read_rows = adapter resolve_table) ~key image =
  Csdl.Synopsis_store.read_entry ~read_rows ~path:(write_image image) ~key

let read_entry_exn ?read_rows image key =
  match read_entry_image ?read_rows ~key image with
  | Ok s -> s
  | Error e ->
      Alcotest.failf "read_entry %s: %s" key (Csdl.Fault.error_to_string e)

(* An entry as its samples' tuples rather than their row numbers: the
   serving read renumbers rows into a table of the sampled rows only. *)
let contents (s : Csdl.Synopsis_store.stored) =
  let side (sample : Csdl.Sample.t) =
    let row i = Array.to_list (Table.row sample.Csdl.Sample.table i) in
    ( sample.Csdl.Sample.column,
      sample.Csdl.Sample.tuple_count,
      Csdl.Sample.sentry_count sample,
      Schema.columns (Table.schema sample.Csdl.Sample.table),
      List.map
        (fun (v, (e : Csdl.Sample.entry)) ->
          ( v,
            Option.map row e.Csdl.Sample.sentry_row,
            Array.to_list (Array.map row e.Csdl.Sample.rows),
            e.Csdl.Sample.p_v,
            e.Csdl.Sample.q_v ))
        (Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries) )
  in
  let syn = s.Csdl.Synopsis_store.synopsis in
  (* the rest of the entry: its encoding with the samples emptied *)
  let empty (sample : Csdl.Sample.t) =
    { sample with Csdl.Sample.entries = Value.Tbl.create 1 }
  in
  let head =
    {
      s with
      synopsis =
        {
          syn with
          sample_a = empty syn.Csdl.Synopsis.sample_a;
          sample_b = empty syn.Csdl.Synopsis.sample_b;
        };
    }
  in
  ( Csdl.Synopsis_store.encode [ head ],
    side syn.Csdl.Synopsis.sample_a,
    side syn.Csdl.Synopsis.sample_b )

let test_read_entry_matches_read () =
  List.iter
    (fun shards ->
      let image = multi_entry_image ~shards () in
      let all =
        match Csdl.Synopsis_store.decode ~resolve_table image with
        | Ok all -> all
        | Error e -> Alcotest.failf "decode: %s" (Csdl.Fault.error_to_string e)
      in
      let csv_image = multi_entry_image ~name:csv ~shards () in
      List.iter
        (fun (key, _) ->
          let whole =
            List.find (fun (s : Csdl.Synopsis_store.stored) -> s.key = key) all
          in
          List.iter
            (fun (reader, (one : Csdl.Synopsis_store.stored)) ->
              (* the CSV store names its tables by path *)
              let one =
                { one with table_a = whole.table_a; table_b = whole.table_b }
              in
              if contents whole <> contents one then
                Alcotest.failf "%s at %d shards, %s: not the entry read reads"
                  key shards reader;
              List.iter2
                (fun w o ->
                  if w <> o then
                    Alcotest.failf "%s at %d shards, %s: %h from read, %h \
                                    from read_entry" key shards reader w o)
                (flat_estimates whole) (flat_estimates one))
            [
              ("adapter", read_entry_exn image key);
              ( "CSV reader",
                read_entry_exn ~read_rows:Csv_io.read_rows csv_image key );
            ])
        entry_keys)
    [ 1; 4 ]

let test_read_entry_resolves_only_its_tables () =
  let image = multi_entry_image ~shards:4 () in
  List.iter
    (fun (key, names) ->
      let calls = ref [] in
      let counting name ~columns ~rows =
        calls := name :: !calls;
        adapter resolve_table name ~columns ~rows
      in
      ignore (read_entry_exn ~read_rows:counting image key);
      Alcotest.(check (list string))
        (key ^ ": resolver saw its own tables, once each")
        names
        (List.sort compare !calls))
    entry_keys

let test_read_entry_absent_key () =
  let image = multi_entry_image ~shards:1 () in
  match read_entry_image ~key:"nope" image with
  | Error (Csdl.Fault.Store_mismatch { what; _ }) ->
      Alcotest.(check string) "typed key fault" "key" what
  | Error e -> Alcotest.failf "unexpected: %s" (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.fail "absent key decoded"

let test_read_entry_ignores_other_entries_tables () =
  let image = multi_entry_image ~shards:4 () in
  let missing_fk = function
    | "fk" -> raise Not_found
    | name -> resolve_table name
  in
  ignore (read_entry_exn ~read_rows:(adapter missing_fk) image "a-b");
  (match Csdl.Synopsis_store.decode ~resolve_table:missing_fk image with
  | Error (Csdl.Fault.Store_mismatch { what = "table"; _ }) -> ()
  | Error e ->
      Alcotest.failf "read: unexpected %s" (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.fail "read must still fail on an unresolvable table");
  (* the entry's own tables are still checked *)
  match read_entry_image ~read_rows:(adapter missing_fk) ~key:"pk-fk" image with
  | Error (Csdl.Fault.Store_mismatch { what = "table"; _ }) -> ()
  | Error e ->
      Alcotest.failf "pk-fk: unexpected %s" (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.fail "pk-fk decoded without its fk table"

(* Re-seal a payload under a valid header, so corruption below the outer
   checksum reaches the per-segment and structural checks. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  !h

let reseal payload =
  let buf = Buffer.create (String.length payload + 40) in
  Buffer.add_string buf "reprosyn";
  Buffer.add_int64_le buf (Int64.of_int Csdl.Synopsis_store.version);
  Buffer.add_int64_le buf Csdl.Synopsis_store.schema_hash;
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_int64_le buf (fnv64 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let flip image pos =
  let b = Bytes.of_string image in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Bytes.to_string b

let test_read_entry_rejects_corruption () =
  let image = multi_entry_image ~shards:4 () in
  let payload = String.sub image 40 (String.length image - 40) in
  let expect what region result =
    match result with
    | Error (Csdl.Fault.Store_mismatch { what = w; _ }) ->
        Alcotest.(check string) region what w
    | Error e ->
        Alcotest.failf "%s: unexpected %s" region
          (Csdl.Fault.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: corrupted image decoded" region
  in
  let decode_first image = read_entry_image ~key:"a-a" image in
  (* header fields *)
  List.iter
    (fun (pos, what) ->
      expect what
        ("header byte " ^ string_of_int pos)
        (decode_first (flip image pos)))
    [
      (0, "magic");
      (8, "version");
      (16, "schema-hash");
      (24, "payload");
      (32, "checksum");
    ];
  (* a payload byte under the outer checksum *)
  expect "checksum" "payload byte" (decode_first (flip image 60));
  (* another entry's shard segment, re-sealed so only the segment's own
     checksum can catch it: the byte 9 from the end lies in the last
     entry's (pk-fk) last segment, just before its n_prime *)
  expect "shard segment" "other entry's segment"
    (decode_first (reseal (flip payload (String.length payload - 9))));
  (* payload tail: truncated, truncated and re-sealed, trailing bytes *)
  expect "payload" "truncated file"
    (decode_first (String.sub image 0 (String.length image - 3)));
  expect "payload" "truncated payload"
    (decode_first (reseal (String.sub payload 0 (String.length payload - 3))));
  expect "payload" "trailing bytes" (decode_first (reseal (payload ^ "\000")));
  (* every single-bit flip anywhere, re-sealed or not: a typed result,
     never an exception *)
  for pos = 0 to String.length payload - 1 do
    List.iter
      (fun image ->
        let path = write_image image in
        List.iter
          (fun (key, _) ->
            match
              Csdl.Synopsis_store.read_entry
                ~read_rows:(adapter resolve_table) ~path ~key
            with
            | Ok _ | Error (Csdl.Fault.Store_mismatch _) -> ()
            | Error e ->
                Alcotest.failf "flip at %d, %s: %s" pos key
                  (Csdl.Fault.error_to_string e)
            | exception exn ->
                Alcotest.failf "flip at %d, %s raised %s" pos key
                  (Printexc.to_string exn))
          entry_keys)
      [ flip image (40 + pos); reseal (flip payload pos) ]
  done

(* The decoder's named checks. A [payload] fault is named by its detail;
   the catch-all for a stray stdlib exception also says [payload], with
   the exception's printed form as its detail, and matches none of
   these. *)
let named_fault = function
  | Csdl.Fault.Store_mismatch { what = "payload"; detail } ->
      List.exists
        (fun prefix -> String.starts_with ~prefix detail)
        [
          "truncated at byte ";
          "integer out of range";
          "negative ";
          "unknown ";
          "payload length ";
          "trailing bytes after last entry";
        ]
  | Csdl.Fault.Store_mismatch
      {
        what =
          ( "header" | "magic" | "version" | "schema-hash" | "checksum"
          | "shard segment" | "row" | "table" | "fingerprint" | "key" );
        _;
      } ->
      true
  | _ -> false

(* The non-empty shard segments of a payload, as the offset of each one's
   length field and its length: a length, then an FNV-1a checksum that
   matches the bytes after them. *)
let segments payload =
  let n = String.length payload in
  List.filter
    (fun (i, len) ->
      len > 0
      && len <= n - i - 16
      && String.get_int64_le payload (i + 8)
         = fnv64 (String.sub payload (i + 16) len))
    (List.init (max 0 (n - 16)) (fun i ->
         (i, Int64.to_int (String.get_int64_le payload i))))

(* Every prefix of a valid image (raw, and re-sealed so the inner checks
   see it) and 3,000 seeded byte substitutions (raw; re-sealed; and inside
   a shard segment whose checksum is recomputed, so the entry parser reads
   them), through each of [decoders]: each returns promptly, never
   raises, and fails, if at all, through a named check. A raw image that
   is not the valid one must fail; a re-sealed substitution may still
   decode (a changed float, say). A substitution inside a segment leaves
   the table names whole, so it may fail only as [in_segment] allows. *)
let sweep ~shards ~decoders ~in_segment image =
  let payload = String.sub image 40 (String.length image - 40) in
  let check ?(allowed = named_fault) ~must_fail label image =
    let path = write_image image in
    List.iter
      (fun (name, decode) ->
        let started = Sys.time () in
        (match decode ~image ~path with
        | Ok () ->
            if must_fail then
              Alcotest.failf "%d shards, %s: %s decoded" shards label name
        | Error fault ->
            if not (allowed fault) then
              Alcotest.failf "%d shards, %s: %s: unnamed fault %s" shards label
                name (Csdl.Fault.error_to_string fault)
        | exception exn ->
            Alcotest.failf "%d shards, %s: %s raised %s" shards label name
              (Printexc.to_string exn));
        if Sys.time () -. started > 1.0 then
          Alcotest.failf "%d shards, %s: %s took over a second" shards label
            name)
      decoders
  in
  for len = 0 to String.length image - 1 do
    check ~must_fail:true
      (Printf.sprintf "prefix of %d bytes" len)
      (String.sub image 0 len)
  done;
  for len = 0 to String.length payload - 1 do
    check ~must_fail:true
      (Printf.sprintf "re-sealed payload prefix of %d bytes" len)
      (reseal (String.sub payload 0 len))
  done;
  (* a length near max_int (here the first key's) must not wrap past the
     bounds check *)
  let huge = Bytes.of_string payload in
  Bytes.set_int64_le huge 8 (Int64.of_int max_int);
  check ~must_fail:true "key length max_int" (reseal (Bytes.to_string huge));
  let prng = Prng.create (100 + shards) in
  let substitute s =
    let b = Bytes.of_string s in
    let pos = Prng.int prng (Bytes.length b) in
    Bytes.set b pos
      (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Prng.int prng 255)));
    (pos, Bytes.to_string b)
  in
  let segments = Array.of_list (segments payload) in
  Alcotest.(check bool) "fixture has shard segments" true
    (Array.length segments >= 6);
  for _ = 1 to 1000 do
    let pos, raw = substitute image in
    check ~must_fail:true (Printf.sprintf "byte %d substituted" pos) raw;
    let pos, inner = substitute payload in
    check ~must_fail:false
      (Printf.sprintf "payload byte %d substituted, re-sealed" pos)
      (reseal inner);
    let at, len = segments.(Prng.int prng (Array.length segments)) in
    let pos, body = substitute (String.sub payload (at + 16) len) in
    let b = Bytes.of_string payload in
    Bytes.blit_string body 0 b (at + 16) len;
    Bytes.set_int64_le b (at + 8) (fnv64 body);
    check ~allowed:in_segment ~must_fail:false
      (Printf.sprintf "segment at %d, byte %d substituted, re-sealed" at pos)
      (reseal (Bytes.to_string b))
  done

let ignore_ok r = Result.map ignore r

(* The sweep through [decode] and the adapter's [read_entry] for each key,
   then over a store of the same tables written as CSVs, through the CSV
   reader's [read_entry] for each key and [read_served]. There a garbage
   row index in a segment is the store's [row] fault: the reader skips a
   row it does not have rather than raising, which would surface as a
   [table] fault. *)
let test_decoder_truncation_and_substitution () =
  let per_key read_rows =
    List.map
      (fun (key, _) ->
        ( "read_entry " ^ key,
          fun ~image:_ ~path ->
            ignore_ok (Csdl.Synopsis_store.read_entry ~read_rows ~path ~key) ))
      entry_keys
  in
  List.iter
    (fun shards ->
      sweep ~shards ~in_segment:named_fault
        ~decoders:
          (( "decode",
             fun ~image ~path:_ ->
               ignore_ok (Csdl.Synopsis_store.decode ~resolve_table image) )
          :: per_key (adapter resolve_table))
        (multi_entry_image ~shards ());
      sweep ~shards
        ~in_segment:(function
          | Csdl.Fault.Store_mismatch { what = "table"; _ } -> false
          | fault -> named_fault fault)
        ~decoders:
          (( "read_served, CSV reader",
             fun ~image:_ ~path ->
               ignore_ok
                 (Csdl.Synopsis_store.read_served ~read_rows:Csv_io.read_rows
                    ~path) )
          :: per_key Csv_io.read_rows)
        (multi_entry_image ~name:csv ~shards ()))
    [ 1; 4 ]

(* ---------------- LRU synopsis cache ---------------- *)

let cache_key i =
  {
    Csdl.Synopsis_cache.fp_a = Int64.of_int i;
    fp_b = 0L;
    variant = "csdl-opt";
    theta = 0.5;
    prng_key = "";
  }

let draw_synopsis seed =
  let profile = Csdl.Profile.of_tables (table "a") "k" (table "b") "k" in
  let estimator = Csdl.Opt.prepare ~theta:0.5 profile in
  Csdl.Estimator.draw estimator (Prng.create seed)

let test_cache_hit_miss_counters () =
  let cache = Csdl.Synopsis_cache.create ~capacity:4 () in
  let s1 = draw_synopsis 1 in
  Alcotest.(check bool) "initial miss" true
    (Csdl.Synopsis_cache.find cache (cache_key 1) = None);
  Csdl.Synopsis_cache.insert cache (cache_key 1) s1;
  (match Csdl.Synopsis_cache.find cache (cache_key 1) with
  | Some s -> Alcotest.(check bool) "hit returns the same object" true (s == s1)
  | None -> Alcotest.fail "expected a hit");
  let built = ref 0 in
  let s =
    Csdl.Synopsis_cache.find_or_build cache (cache_key 1) (fun () ->
        incr built;
        draw_synopsis 99)
  in
  Alcotest.(check bool) "find_or_build hit skips build" true
    (s == s1 && !built = 0);
  ignore
    (Csdl.Synopsis_cache.find_or_build cache (cache_key 2) (fun () ->
         incr built;
         draw_synopsis 2));
  Alcotest.(check int) "miss builds" 1 !built;
  Alcotest.(check int) "hits" 2 (Csdl.Synopsis_cache.hits cache);
  Alcotest.(check int) "misses" 2 (Csdl.Synopsis_cache.misses cache);
  Alcotest.(check int) "no evictions" 0 (Csdl.Synopsis_cache.evictions cache);
  Alcotest.(check int) "length" 2 (Csdl.Synopsis_cache.length cache)

let test_cache_lru_eviction_order () =
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  Csdl.Synopsis_cache.insert cache (cache_key 1) (draw_synopsis 1);
  Csdl.Synopsis_cache.insert cache (cache_key 2) (draw_synopsis 2);
  (* touch 1 so 2 becomes the LRU entry *)
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 3) (draw_synopsis 3);
  Alcotest.(check int) "one eviction" 1 (Csdl.Synopsis_cache.evictions cache);
  Alcotest.(check bool) "LRU entry evicted" true
    (Csdl.Synopsis_cache.find cache (cache_key 2) = None);
  Alcotest.(check bool) "recently used survives" true
    (Csdl.Synopsis_cache.find cache (cache_key 1) <> None);
  Alcotest.(check bool) "new entry present" true
    (Csdl.Synopsis_cache.find cache (cache_key 3) <> None);
  Alcotest.(check int) "capacity respected" 2 (Csdl.Synopsis_cache.length cache)

let test_save_leaves_no_temp_files () =
  (* crash-safe save goes through a temp file + atomic rename in the
     target directory; a successful save must leave exactly the store
     file behind, including when it replaces an existing one *)
  let dir = Filename.temp_file "repro-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let store = build_store () in
      let path = Filename.concat dir "synopses.bin" in
      Csdl.Store.save store path;
      Alcotest.(check (array string))
        "only the store file after first save" [| "synopses.bin" |]
        (Sys.readdir dir);
      Csdl.Store.save store path;
      Alcotest.(check (array string))
        "only the store file after overwrite" [| "synopses.bin" |]
        (Sys.readdir dir);
      let back = Csdl.Store.load ~resolve_table path in
      Alcotest.(check (list string))
        "replaced file loads" (Csdl.Store.keys store) (Csdl.Store.keys back))

let test_save_into_missing_directory_raises () =
  let store = build_store () in
  let path = "/nonexistent-repro-dir/synopses.bin" in
  (match Csdl.Store.save store path with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no partial target" false (Sys.file_exists path)

let test_cache_stats_accessor () =
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 1) (draw_synopsis 1);
  ignore (Csdl.Synopsis_cache.find cache (cache_key 1));
  Csdl.Synopsis_cache.insert cache (cache_key 2) (draw_synopsis 2);
  Csdl.Synopsis_cache.insert cache (cache_key 3) (draw_synopsis 3);
  let s = Csdl.Synopsis_cache.stats cache in
  Alcotest.(check int) "stats hits" (Csdl.Synopsis_cache.hits cache)
    s.Csdl.Synopsis_cache.s_hits;
  Alcotest.(check int) "stats misses" (Csdl.Synopsis_cache.misses cache)
    s.Csdl.Synopsis_cache.s_misses;
  Alcotest.(check int) "stats evictions"
    (Csdl.Synopsis_cache.evictions cache)
    s.Csdl.Synopsis_cache.s_evictions;
  Alcotest.(check int) "stats size" (Csdl.Synopsis_cache.length cache)
    s.Csdl.Synopsis_cache.s_size;
  Alcotest.(check int) "one eviction happened" 1 s.Csdl.Synopsis_cache.s_evictions

let test_cache_eviction_under_concurrent_reads () =
  (* the cache is not thread-safe by contract; servers wrap it in a mutex
     and keep evicting under concurrent readers — the tallies must stay
     exact and every hit must return the synopsis inserted for that key *)
  let cache = Csdl.Synopsis_cache.create ~capacity:2 () in
  let mutex = Mutex.create () in
  let nkeys = 6 in
  let synopses = Array.init nkeys (fun i -> draw_synopsis (100 + i)) in
  let ops_per_domain = 200 in
  let wrong = Atomic.make 0 in
  let worker d () =
    for op = 0 to ops_per_domain - 1 do
      let i = (op + (d * 7)) mod nkeys in
      Mutex.lock mutex;
      let got =
        Csdl.Synopsis_cache.find_or_build cache (cache_key i) (fun () ->
            synopses.(i))
      in
      Mutex.unlock mutex;
      if not (got == synopses.(i)) then Atomic.incr wrong
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Csdl.Synopsis_cache.stats cache in
  Alcotest.(check int) "no cross-key mixups" 0 (Atomic.get wrong);
  Alcotest.(check int) "every lookup tallied (hits + misses)"
    (4 * ops_per_domain)
    (s.Csdl.Synopsis_cache.s_hits + s.Csdl.Synopsis_cache.s_misses);
  Alcotest.(check int) "size pinned at capacity" 2 s.Csdl.Synopsis_cache.s_size;
  Alcotest.(check int) "every displaced insert counted as an eviction"
    (s.Csdl.Synopsis_cache.s_misses - s.Csdl.Synopsis_cache.s_size)
    s.Csdl.Synopsis_cache.s_evictions

let test_cache_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Synopsis_cache.create: capacity must be positive")
    (fun () -> ignore (Csdl.Synopsis_cache.create ~capacity:0 ()))

let () =
  Alcotest.run "csdl_store"
    [
      ( "store",
        [
          Alcotest.test_case "registry" `Quick test_store_registry;
          Alcotest.test_case "estimate" `Quick test_store_estimate;
          Alcotest.test_case "orientation" `Quick test_store_estimate_orientation;
          Alcotest.test_case "save/load roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "flat path matches legacy reference" `Quick
            test_flat_matches_legacy_reference;
          Alcotest.test_case "validation runs once per load" `Quick
            test_validation_runs_once_per_load;
          Alcotest.test_case "sentry count precomputed" `Quick
            test_sentry_count_precomputed;
          Alcotest.test_case "bit-identical roundtrip, all variants" `Quick
            test_roundtrip_bit_identical_all_variants;
          Alcotest.test_case "prng key and info" `Quick
            test_prng_key_and_info_roundtrip;
          Alcotest.test_case "rejects corrupted payload" `Quick
            test_store_rejects_corrupted_payload;
          Alcotest.test_case "rejects wrong version" `Quick
            test_store_rejects_wrong_version;
          Alcotest.test_case "rejects truncation" `Quick
            test_store_rejects_truncation;
          Alcotest.test_case "rejects fingerprint mismatch" `Quick
            test_store_rejects_fingerprint_mismatch;
          Alcotest.test_case "rejects garbage" `Quick test_store_load_rejects_garbage;
          Alcotest.test_case "replace key" `Quick test_store_replace_same_key;
          Alcotest.test_case "atomic save leaves no temp files" `Quick
            test_save_leaves_no_temp_files;
          Alcotest.test_case "save into missing directory" `Quick
            test_save_into_missing_directory_raises;
          Alcotest.test_case "rejects out-of-range rows" `Quick
            test_rejects_out_of_range_rows;
        ] );
      ( "read_entry",
        [
          Alcotest.test_case "matches read, shards 1 and 4" `Quick
            test_read_entry_matches_read;
          Alcotest.test_case "resolves only its tables" `Quick
            test_read_entry_resolves_only_its_tables;
          Alcotest.test_case "absent key" `Quick test_read_entry_absent_key;
          Alcotest.test_case "other entries' tables unresolved" `Quick
            test_read_entry_ignores_other_entries_tables;
          Alcotest.test_case "corruption is typed, never raised" `Quick
            test_read_entry_rejects_corruption;
          Alcotest.test_case "truncation and byte substitution are named faults"
            `Quick test_decoder_truncation_and_substitution;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_hit_miss_counters;
          Alcotest.test_case "LRU eviction order" `Quick
            test_cache_lru_eviction_order;
          Alcotest.test_case "stats accessor" `Quick test_cache_stats_accessor;
          Alcotest.test_case "eviction under concurrent reads" `Quick
            test_cache_eviction_under_concurrent_reads;
          Alcotest.test_case "bad capacity" `Quick test_cache_rejects_bad_capacity;
        ] );
    ]
