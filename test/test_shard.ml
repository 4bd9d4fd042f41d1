(* Tests for sharded, mergeable synopses (Synopsis_shard): K-shard builds
   must merge into the exact monolithic draw, incremental deltas must be
   bit-identical to from-scratch re-draws of the post-delta tables, and
   the v2 per-shard store format must round-trip and reject a corrupted
   or truncated shard segment by name. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let table_a =
  lazy (table_of_counts (List.init 12 (fun i -> (i, 3 + (i mod 5)))))

let table_b =
  lazy (table_of_counts (List.init 9 (fun i -> (i, 2 + (i mod 4)))))

let base = 0x5eed5eed5eed5eedL

let profile () = Csdl.Profile.of_tables (Lazy.force table_a) "k" (Lazy.force table_b) "k"

let resolve ?(theta = 0.5) ?(spec = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
    profile =
  Csdl.Budget.resolve spec ~theta profile

(* Bit-identity of whole synopses, via the canonical serializer: equal
   encodings are equal resolved budgets, samples, sentry bookkeeping and
   [N'], bit for bit. *)
let encode_synopsis synopsis =
  Csdl.Synopsis_store.encode
    [
      {
        Csdl.Synopsis_store.key = "s";
        table_a = "a";
        table_b = "b";
        swapped = false;
        fingerprint_a = 0L;
        fingerprint_b = 0L;
        prng_key = "";
        shards = 1;
        sentinels = [];
        synopsis;
      };
    ]

let check_synopsis_equal what expected actual =
  Alcotest.(check bool)
    what true
    (String.equal (encode_synopsis expected) (encode_synopsis actual))

let preds =
  [
    (Predicate.True, Predicate.True);
    ( Predicate.Compare (Predicate.Lt, "attr", Value.Int 4),
      Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) );
    (Predicate.Compare (Predicate.Le, "attr", Value.Int 2), Predicate.True);
  ]

let check_flat_equal what reference flat =
  List.iter
    (fun (pred_a, pred_b) ->
      let estimate flat =
        Csdl.Fault.get_ok
          Csdl.Estimate.(value (run_checked_flat ~pred_a ~pred_b flat))
      in
      let e = estimate reference and f = estimate flat in
      if e <> f then Alcotest.failf "%s: flat %h <> reference %h" what f e)
    preds

(* ---------------- build / merge ---------------- *)

let test_merge_matches_monolithic () =
  let profile = profile () in
  let resolved = resolve profile in
  let reference = Csdl.Synopsis.draw_base ~base ~profile ~resolved () in
  List.iter
    (fun shards ->
      let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
      Alcotest.(check int)
        (Printf.sprintf "%d shards registered" shards)
        shards
        (Csdl.Synopsis_shard.shard_count t);
      check_synopsis_equal
        (Printf.sprintf "merge of %d shards = monolithic draw" shards)
        reference
        (Csdl.Synopsis_shard.merge t);
      Alcotest.(check int)
        (Printf.sprintf "tuple counts over %d shards sum to the draw" shards)
        (Csdl.Synopsis.size_tuples reference)
        (Array.fold_left ( + ) 0 (Csdl.Synopsis_shard.shard_tuple_counts t)))
    [ 1; 2; 4; 8; 64 ]

let test_build_rejects_bad_shards () =
  let profile = profile () in
  let resolved = resolve profile in
  let badly f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "shards < 1 must be rejected"
  in
  badly (fun () ->
      Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards:0 ());
  badly (fun () ->
      let syn = Csdl.Synopsis.draw_base ~base ~profile ~resolved () in
      Csdl.Synopsis_shard.of_synopsis ~base ~profile ~shards:0 syn)

(* The merge's hashtables iterate in another order than the monolithic
   draw's; flattening lays both out in canonical order, so the estimates
   agree bit for bit. *)
let test_flat_of_merge_is_monolithic () =
  let profile = profile () in
  let resolved = resolve profile in
  let reference =
    Csdl.Synopsis_flat.of_synopsis
      (Csdl.Synopsis.draw_base ~base ~profile ~resolved ())
  in
  List.iter
    (fun shards ->
      let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
      check_flat_equal
        (Printf.sprintf "flat of the merge at %d shards" shards)
        reference
        (Csdl.Synopsis_flat.of_synopsis (Csdl.Synopsis_shard.merge t)))
    [ 1; 3; 8 ]

(* ---------------- deltas ---------------- *)

(* The post-delta tables [apply_delta] must agree with: deletes removed
   (in one pass, preserving survivor order), inserts appended. *)
let expected_table table { Csdl.Synopsis_shard.inserts; deletes } =
  let dead = Array.to_list deletes in
  let rows = ref [] in
  Table.iteri
    (fun i row -> if not (List.mem i dead) then rows := row :: !rows)
    table;
  Array.iter (fun row -> rows := row :: !rows) inserts;
  Table.of_rows schema (List.rev !rows)

let check_delta_matches_rebuild what ~shards ~delta t =
  let dirty = Csdl.Synopsis_shard.apply_delta t delta in
  Alcotest.(check bool)
    (what ^ ": dirty count within shard range")
    true
    (dirty >= 0 && dirty <= shards);
  let post = Csdl.Synopsis_shard.profile t in
  let resolved = resolve post in
  let rebuilt = Csdl.Synopsis.draw_base ~base ~profile:post ~resolved () in
  check_synopsis_equal (what ^ ": delta = from-scratch re-draw") rebuilt
    (Csdl.Synopsis_shard.merge t);
  check_flat_equal
    (what ^ ": flat after delta")
    (Csdl.Synopsis_flat.of_synopsis rebuilt)
    (Csdl.Synopsis_flat.of_synopsis (Csdl.Synopsis_shard.merge t))

let test_delta_insert_delete_both_sides () =
  let profile = profile () in
  let resolved = resolve profile in
  let shards = 4 in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
  let delta =
    {
      Csdl.Synopsis_shard.a =
        {
          Csdl.Synopsis_shard.inserts =
            [|
              [| Value.Int 2; Value.Int 99 |];
              [| Value.Int 40; Value.Int 1 |];
              (* brand-new join value *)
            |];
          deletes = [| 0; 7; 19 |];
        };
      b =
        {
          Csdl.Synopsis_shard.inserts = [| [| Value.Int 3; Value.Int 77 |] |];
          deletes = [| 2 |];
        };
    }
  in
  let a0 = (Csdl.Synopsis_shard.profile t).Csdl.Profile.a.Csdl.Profile.table in
  let b0 = (Csdl.Synopsis_shard.profile t).Csdl.Profile.b.Csdl.Profile.table in
  let expect_a = expected_table a0 delta.Csdl.Synopsis_shard.a
  and expect_b = expected_table b0 delta.Csdl.Synopsis_shard.b in
  check_delta_matches_rebuild "mixed delta" ~shards ~delta t;
  let post = Csdl.Synopsis_shard.profile t in
  Alcotest.(check int64)
    "post-delta A table" (Table.fingerprint expect_a)
    (Table.fingerprint post.Csdl.Profile.a.Csdl.Profile.table);
  Alcotest.(check int64)
    "post-delta B table" (Table.fingerprint expect_b)
    (Table.fingerprint post.Csdl.Profile.b.Csdl.Profile.table)

let test_delta_on_empty_shards () =
  (* 64 shards over ~20 values: most shards hold nothing, and the delta
     walks through them (including routing an insert into what may be an
     empty shard) without disturbing the identity *)
  let profile = profile () in
  let resolved = resolve profile in
  let shards = 64 in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
  let delta =
    {
      Csdl.Synopsis_shard.a =
        {
          Csdl.Synopsis_shard.inserts = [| [| Value.Int 51; Value.Int 0 |] |];
          deletes = [||];
        };
      b =
        {
          Csdl.Synopsis_shard.inserts = [| [| Value.Int 51; Value.Int 1 |] |];
          deletes = [||];
        };
    }
  in
  check_delta_matches_rebuild "delta into empty shards" ~shards ~delta t

let test_delete_of_non_sampled_tuple () =
  let profile = profile () in
  let resolved = resolve profile in
  let shards = 4 in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
  let sample_a = (Csdl.Synopsis_shard.merge t).Csdl.Synopsis.sample_a in
  (* a row whose join value the first-level hash test rejected: deleting
     it still re-prices its group, but nothing sampled refers to it *)
  let victim = ref None in
  Table.iteri
    (fun i row ->
      if !victim = None then
        match row.(0) with
        | Value.Int _ as v ->
            if not (Value.Tbl.mem sample_a.Csdl.Sample.entries v) then
              victim := Some i
        | _ -> ())
    (Lazy.force table_a);
  match !victim with
  | None ->
      Alcotest.fail
        "fixture must leave at least one join value un-sampled at theta 0.5"
  | Some i ->
      let delta =
        {
          Csdl.Synopsis_shard.a =
            { Csdl.Synopsis_shard.inserts = [||]; deletes = [| i |] };
          b = Csdl.Synopsis_shard.no_delta;
        }
      in
      check_delta_matches_rebuild "delete of non-sampled tuple" ~shards ~delta
        t

let test_delta_rejects_bad_deletes () =
  let check what delta =
    let profile = profile () in
    let resolved = resolve profile in
    let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards:2 () in
    match Csdl.Synopsis_shard.apply_delta t delta with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ " must be rejected")
  in
  check "out-of-range delete"
    {
      Csdl.Synopsis_shard.a =
        { Csdl.Synopsis_shard.inserts = [||]; deletes = [| 100000 |] };
      b = Csdl.Synopsis_shard.no_delta;
    };
  check "duplicate delete"
    {
      Csdl.Synopsis_shard.a =
        { Csdl.Synopsis_shard.inserts = [||]; deletes = [| 3; 3 |] };
      b = Csdl.Synopsis_shard.no_delta;
    }

let test_sentry_consistency_interleaved () =
  let profile = profile () in
  let resolved = resolve profile in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards:4 () in
  let sentries_by_fold (s : Csdl.Sample.t) =
    Value.Tbl.fold
      (fun _ (e : Csdl.Sample.entry) acc ->
        match e.Csdl.Sample.sentry_row with Some _ -> acc + 1 | None -> acc)
      s.Csdl.Sample.entries 0
  in
  let check_consistent what =
    let { Csdl.Synopsis.sample_a; sample_b; _ } = Csdl.Synopsis_shard.merge t in
    List.iter
      (fun (side, s) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: side %s sentry count" what side)
          (sentries_by_fold s)
          (Csdl.Sample.sentry_count s))
      [ ("A", sample_a); ("B", sample_b) ]
  in
  check_consistent "after build";
  let steps =
    [
      ( "insert",
        {
          Csdl.Synopsis_shard.a =
            {
              Csdl.Synopsis_shard.inserts =
                [| [| Value.Int 1; Value.Int 9 |] |];
              deletes = [||];
            };
          b = Csdl.Synopsis_shard.no_delta;
        } );
      ( "delete",
        {
          Csdl.Synopsis_shard.a =
            { Csdl.Synopsis_shard.inserts = [||]; deletes = [| 5 |] };
          b = Csdl.Synopsis_shard.no_delta;
        } );
      ( "mixed",
        {
          Csdl.Synopsis_shard.a =
            {
              Csdl.Synopsis_shard.inserts =
                [| [| Value.Int 6; Value.Int 8 |] |];
              deletes = [| 2; 11 |];
            };
          b =
            {
              Csdl.Synopsis_shard.inserts =
                [| [| Value.Int 6; Value.Int 0 |] |];
              deletes = [| 4 |];
            };
        } );
    ]
  in
  List.iter
    (fun (what, delta) ->
      ignore (Csdl.Synopsis_shard.apply_delta t delta);
      check_consistent ("after " ^ what))
    steps;
  (* and the interleaved end state is still the from-scratch draw *)
  let post = Csdl.Synopsis_shard.profile t in
  let resolved = resolve post in
  check_synopsis_equal "end state = re-draw"
    (Csdl.Synopsis.draw_base ~base ~profile:post ~resolved ())
    (Csdl.Synopsis_shard.merge t)

(* ---------------- v2 store format ---------------- *)

let resolve_table name =
  match name with
  | "a" -> Lazy.force table_a
  | "b" -> Lazy.force table_b
  | _ -> raise Not_found

let stored_with_shards shards =
  let profile = profile () in
  let resolved = resolve profile in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
  {
    Csdl.Synopsis_store.key = "s";
    table_a = "a";
    table_b = "b";
    swapped = false;
    fingerprint_a = Table.fingerprint (Lazy.force table_a);
    fingerprint_b = Table.fingerprint (Lazy.force table_b);
    prng_key = "7:synopsis/s";
    shards;
    sentinels = [];
    synopsis = Csdl.Synopsis_shard.merge t;
  }

let test_store_v2_roundtrip_per_shard () =
  List.iter
    (fun shards ->
      let stored = stored_with_shards shards in
      let image = Csdl.Synopsis_store.encode [ stored ] in
      match Csdl.Synopsis_store.decode ~resolve_table image with
      | Error e ->
          Alcotest.failf "%d shards: decode failed: %s" shards
            (Csdl.Fault.error_to_string e)
      | Ok [ back ] ->
          Alcotest.(check int)
            (Printf.sprintf "%d shards recorded" shards)
            shards back.Csdl.Synopsis_store.shards;
          Alcotest.(check string)
            (Printf.sprintf "%d shards: re-encode is bit-identical" shards)
            image
            (Csdl.Synopsis_store.encode [ back ])
      | Ok l -> Alcotest.failf "expected 1 entry, got %d" (List.length l))
    [ 1; 4; 8 ]

(* FNV-1a, transcribed from the store's checksum, to re-seal the outer
   header after corrupting payload bytes — corruption below the outer
   checksum is exactly what the per-segment verification must catch. *)
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

let expect_shard_segment_fault what = function
  | Error (Csdl.Fault.Store_mismatch { what = w; _ }) ->
      Alcotest.(check string) (what ^ ": fault names the segment") "shard segment" w
  | Error e ->
      Alcotest.failf "%s: expected shard-segment fault, got %s" what
        (Csdl.Fault.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: corrupted segment must not decode" what

let test_rejects_corrupt_shard_segment () =
  let image = Csdl.Synopsis_store.encode [ stored_with_shards 4 ] in
  let payload = String.sub image 40 (String.length image - 40) in
  (* payload tail: ... | sample_b's last segment | n_prime f64. Flipping
     the byte 9 from the end lands inside the last segment's checksum or
     entry bytes — under the (re-sealed) outer checksum, so only the
     per-segment verification can catch it. *)
  let corrupt = Bytes.of_string payload in
  let pos = Bytes.length corrupt - 9 in
  Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 1));
  expect_shard_segment_fault "corrupt byte"
    (Csdl.Synopsis_store.decode ~resolve_table
       (reseal (Bytes.to_string corrupt)))

let test_rejects_truncated_shard_segment () =
  (* disjoint join values: the semijoin side draws nothing, so sample_b's
     segments are all empty 16-byte [length|checksum] blocks at known
     offsets from the payload end — bump the last segment's length and
     the reader must report the truncation by shard index, not misparse
     n_prime as entry bytes *)
  let a = table_of_counts [ (1, 4); (2, 5) ]
  and b = table_of_counts [ (100, 3); (200, 2) ] in
  let profile = Csdl.Profile.of_tables a "k" b "k" in
  let resolved = resolve profile in
  let shards = 4 in
  let t = Csdl.Synopsis_shard.build ~base ~profile ~resolved ~shards () in
  let stored =
    {
      Csdl.Synopsis_store.key = "s";
      table_a = "a";
      table_b = "b";
      swapped = false;
      fingerprint_a = Table.fingerprint a;
      fingerprint_b = Table.fingerprint b;
      prng_key = "";
      shards;
      sentinels = [];
      synopsis = Csdl.Synopsis_shard.merge t;
    }
  in
  let resolve_table name =
    match name with "a" -> a | "b" -> b | _ -> raise Not_found
  in
  (match Csdl.Synopsis_store.decode ~resolve_table
           (Csdl.Synopsis_store.encode [ stored ])
   with
  | Ok [ back ] ->
      Alcotest.(check int)
        "fixture: semijoin sample is empty" 0
        (Value.Tbl.length
           back.Csdl.Synopsis_store.synopsis.Csdl.Synopsis.sample_b
             .Csdl.Sample.entries)
  | _ -> Alcotest.fail "fixture store must decode");
  let image = Csdl.Synopsis_store.encode [ stored ] in
  let payload = Bytes.of_string (String.sub image 40 (String.length image - 40)) in
  (* last empty segment block sits at [len - 8 (n_prime) - 16, len - 8) *)
  let len_field = Bytes.length payload - 8 - 16 in
  Bytes.set_int64_le payload len_field 1_000_000L;
  expect_shard_segment_fault "oversized segment length"
    (Csdl.Synopsis_store.decode ~resolve_table
       (reseal (Bytes.to_string payload)))

let () =
  Alcotest.run "csdl_shard"
    [
      ( "merge",
        [
          Alcotest.test_case "K shards = monolithic draw" `Quick
            test_merge_matches_monolithic;
          Alcotest.test_case "rejects shards < 1" `Quick
            test_build_rejects_bad_shards;
          Alcotest.test_case "flat = monolithic flat" `Quick
            test_flat_of_merge_is_monolithic;
        ] );
      ( "delta",
        [
          Alcotest.test_case "insert+delete both sides" `Quick
            test_delta_insert_delete_both_sides;
          Alcotest.test_case "empty shards" `Quick test_delta_on_empty_shards;
          Alcotest.test_case "delete of non-sampled tuple" `Quick
            test_delete_of_non_sampled_tuple;
          Alcotest.test_case "rejects bad delete indices" `Quick
            test_delta_rejects_bad_deletes;
          Alcotest.test_case "sentry consistency, interleaved" `Quick
            test_sentry_consistency_interleaved;
        ] );
      ( "store v2",
        [
          Alcotest.test_case "per-shard roundtrip" `Quick
            test_store_v2_roundtrip_per_shard;
          Alcotest.test_case "rejects corrupt shard segment" `Quick
            test_rejects_corrupt_shard_segment;
          Alcotest.test_case "rejects truncated shard segment" `Quick
            test_rejects_truncated_shard_segment;
        ] );
    ]
