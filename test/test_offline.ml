(* The offline build against its reference oracle (Offline_oracle, the code
   it replaced, kept verbatim): the keyed sorts against sorts through
   [Shard_key.compare], [Table.group_by] against the list-building version
   (groups, row order and hashtable iteration order), the per-group
   sentinel truths against the row-by-row count, profiles over shared
   sides against [Profile.of_tables], and [Store.add]'s reused
   fingerprints against fresh ones. *)

open Repro_relation
module Oracle = Offline_oracle
module Prng = Repro_util.Prng
module G = QCheck.Gen

(* Values compare bit for bit: floats by their bits, so nan = nan and
   -0.0 <> 0.0. *)
let same_value a b =
  match (a, b) with
  | Value.Null, Value.Null -> true
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> false

let same_values a b =
  Array.length a = Array.length b && Array.for_all2 same_value a b

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* A table's bindings in [Value.Tbl.fold] order. *)
let bindings tbl = Value.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let same_bindings same_data a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k, x) (k', y) -> same_value k k' && same_data x y)
       a b

let same_groups a b =
  same_bindings (fun x y -> x = y) (bindings a) (bindings b)

(* ------------------------------------------------------------------ *)
(* Mixed join values                                                    *)
(* ------------------------------------------------------------------ *)

let two_53 = 1 lsl 53

let special_ints = [| 0; 1; -1; 3; 7; min_int; max_int; two_53; two_53 + 1 |]

(* a second NaN payload beside [nan], both zeros, integral floats equal
   to ints above, and 2^53 as a float *)
let special_floats =
  [|
    0.0; -0.0; nan; Int64.float_of_bits 0x7ff8000000000001L; 1.0; 3.0; 7.0;
    1.5; infinity; neg_infinity; float_of_int two_53;
  |]

let strings = [| ""; "a"; "ab"; "The"; "x y"; "Tha" |]

let value_gen =
  G.frequency
    [
      (1, G.return Value.Null);
      (2, G.map (fun i -> Value.Int i) (G.oneofa special_ints));
      (3, G.map (fun i -> Value.Int i) (G.int_range (-20) 20));
      (2, G.map (fun f -> Value.Float f) (G.oneofa special_floats));
      (2, G.map (fun i -> Value.Float (float_of_int i)) (G.int_range (-20) 20));
      (2, G.map (fun s -> Value.Str s) (G.oneofa strings));
      ( 1,
        G.map
          (fun s -> Value.Str s)
          (G.string_size ~gen:G.printable (G.int_bound 4)) );
    ]

(* arrays drawn from a small pool, so values repeat *)
let values_gen =
  G.(
    let* pool = array_size (int_range 1 12) value_gen in
    array_size (int_bound 60)
      (map (fun i -> pool.(i mod Array.length pool)) nat))

let print_values values =
  String.concat "; " (Array.to_list (Array.map Value.to_string values))

let arb_values = QCheck.make ~print:print_values values_gen

(* ------------------------------------------------------------------ *)
(* (a) keyed sorts                                                      *)
(* ------------------------------------------------------------------ *)

let prop_sorted_values =
  QCheck.Test.make ~count:500 ~name:"sorted_values = sort by Shard_key.compare"
    arb_values (fun values ->
      same_values
        (Csdl.Shard_key.sorted_values values)
        (Oracle.sorted_values values))

(* duplicate keys ([add] shadows) with their insertion index as data, so
   the order among equal keys is checked too *)
let prop_sorted_bindings =
  QCheck.Test.make ~count:500
    ~name:"sorted_bindings = sort by Shard_key.compare" arb_values
    (fun values ->
      let tbl = Value.Tbl.create 8 in
      Array.iteri (fun i v -> Value.Tbl.add tbl v i) values;
      same_bindings Int.equal
        (Csdl.Shard_key.sorted_bindings tbl)
        (Oracle.sorted_bindings tbl))

let distinct values =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun v ->
      let e = Value.encode v in
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.replace seen e ();
        true
      end)
    (Array.to_list values)
  |> Array.of_list

(* Budget.prepare's sort: (value, a_v, b_v) triples over distinct values *)
let prop_budget_sort =
  QCheck.Test.make ~count:500 ~name:"Budget's triple sort = Shard_key.compare"
    arb_values (fun values ->
      let triples =
        Array.mapi (fun i v -> (v, float_of_int i, sqrt (float_of_int i)))
          (distinct values)
      in
      let expected = Array.copy triples in
      Oracle.sort_triples expected;
      Csdl.Shard_key.sort_by (fun (v, _, _) -> v) triples;
      Array.for_all2
        (fun (v, a, b) (v', a', b') ->
          same_value v v' && same_bits a a' && same_bits b b')
        triples expected)

(* ------------------------------------------------------------------ *)
(* Tables over mixed join values                                        *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("k", Schema.T_string); ("x", Schema.T_int) ]

(* not validated: a join column may mix every kind of value *)
let table_of keys =
  Table.create schema (Array.mapi (fun i k -> [| k; Value.Int (i mod 5) |]) keys)

(* random keys from a small pool, one group (with nulls), all distinct
   (past the 2,048 entries that make a 1,024-bucket table resize), and no
   rows *)
let keys_gen =
  G.frequency
    [
      (6, values_gen);
      ( 1,
        G.(
          let* v = value_gen and* n = int_range 1 40 in
          let* nulls = array_size (return n) bool in
          return (Array.map (fun null -> if null then Value.Null else v) nulls)) );
      ( 1,
        G.(
          let* n = int_bound 3000 and* base = int_range (-10) 10 in
          return
            (Array.init n (fun i ->
                 if i mod 3 = 0 then Value.Str (string_of_int (base + i))
                 else Value.Int (base + i)))) );
      (1, G.return [||]);
    ]

let arb_keys = QCheck.make ~print:print_values keys_gen

let prop_group_by =
  QCheck.Test.make ~count:300 ~name:"group_by = list-building group_by"
    arb_keys (fun keys ->
      let t = table_of keys in
      same_groups (Table.group_by t "k") (Oracle.group_by t "k"))

let prop_profile_sort =
  QCheck.Test.make ~count:300 ~name:"of_tables shared values = oracle's"
    (QCheck.pair arb_keys arb_keys) (fun (ka, kb) ->
      let ta = table_of ka and tb = table_of kb in
      let p = Csdl.Profile.of_tables ta "k" tb "k"
      and o = Oracle.of_tables ta "k" tb "k" in
      same_values p.Csdl.Profile.shared_values o.Csdl.Profile.shared_values)

(* ------------------------------------------------------------------ *)
(* (c) profiles over shared sides                                       *)
(* ------------------------------------------------------------------ *)

let same_side (s : Csdl.Profile.side) (o : Csdl.Profile.side) =
  s.table == o.table
  && String.equal s.column o.column
  && same_groups s.groups o.groups
  && same_bindings Int.equal (bindings s.frequencies) (bindings o.frequencies)
  && s.cardinality = o.cardinality
  && s.distinct = o.distinct

let same_profile (p : Csdl.Profile.t) (o : Csdl.Profile.t) =
  same_side p.a o.a && same_side p.b o.b
  && same_values p.shared_values o.shared_values
  && same_bits p.jvd o.jvd
  && p.total_rows = o.total_rows

(* Each side is grouped once and serves three profiles (A ⋈ B, B ⋈ A and
   the self-join A ⋈ A); every one equals the oracle's [of_tables] field by
   field, holds the shared sides themselves, and the sides are unchanged
   after the whole build (budget, draw, sentinels) has run on them. *)
let prop_of_sides =
  QCheck.Test.make ~count:200 ~name:"of_sides over shared sides = of_tables"
    (QCheck.pair arb_keys arb_keys) (fun (ka, kb) ->
      let ta = table_of ka and tb = table_of kb in
      let sa = Csdl.Profile.side_of ta "k" and sb = Csdl.Profile.side_of tb "k" in
      let pairs =
        [ (sa, sb, ta, tb); (sb, sa, tb, ta); (sa, sa, ta, ta) ]
      in
      let profiles = List.map (fun (a, b, _, _) -> Csdl.Profile.of_sides a b) pairs in
      List.iter
        (fun (p : Csdl.Profile.t) ->
          if Array.length p.shared_values > 0 then begin
            let est = Csdl.Opt.prepare ~theta:0.5 p in
            let syn = Csdl.Estimator.draw est (Prng.create 3) in
            let store = Csdl.Store.create () in
            Csdl.Store.add store ~key:"k" ~table_a:"a" ~table_b:"b" est syn
          end)
        profiles;
      List.for_all2
        (fun (a, b, ta, tb) (p : Csdl.Profile.t) ->
          p.a == a && p.b == b && same_profile p (Oracle.of_tables ta "k" tb "k"))
        pairs profiles)

(* ------------------------------------------------------------------ *)
(* (d) per-group sentinel truths                                        *)
(* ------------------------------------------------------------------ *)

let ops = [| Predicate.Eq; Ne; Lt; Le; Gt; Ge |]

(* predicates that read only the join column "k" *)
let rec on_join_gen depth =
  let leaf =
    G.frequency
      [
        ( 4,
          G.map2
            (fun op c -> Predicate.Compare (op, "k", c))
            (G.oneofa ops) value_gen );
        (1, G.map (fun s -> Predicate.Like_prefix ("k", s)) (G.oneofa strings));
        (1, G.map (fun s -> Predicate.Like_contains ("k", s)) (G.oneofa strings));
        (1, G.oneofa [| Predicate.True; Predicate.False |]);
      ]
  in
  if depth = 0 then leaf
  else
    let sub = on_join_gen (depth - 1) in
    G.frequency
      [
        (3, leaf);
        (1, G.map2 (fun a b -> Predicate.And (a, b)) sub sub);
        (1, G.map2 (fun a b -> Predicate.Or (a, b)) sub sub);
        (1, G.map (fun a -> Predicate.Not a) sub);
      ]

(* predicates that read the other column "x", alone or beside "k" *)
let on_other_gen =
  let x =
    G.map2
      (fun op c -> Predicate.Compare (op, "x", Value.Int c))
      (G.oneofa ops) (G.int_range (-1) 5)
  in
  G.frequency
    [
      (2, x);
      (1, G.map2 (fun a b -> Predicate.And (a, b)) (on_join_gen 1) x);
      (1, G.map2 (fun a b -> Predicate.Or (a, b)) x (on_join_gen 1));
      (1, G.map (fun a -> Predicate.Not a) x);
    ]

let pred_gen =
  G.frequency
    [
      (1, G.return None);
      (3, G.map Option.some (on_join_gen 2));
      (2, G.map Option.some on_other_gen);
    ]

let print_pred = function None -> "-" | Some p -> Predicate.to_string p

let arb_truth_case =
  QCheck.make
    ~print:(fun (ka, kb, pa, pb) ->
      Printf.sprintf "A: %s\nB: %s\npred_a: %s\npred_b: %s" (print_values ka)
        (print_values kb) (print_pred pa) (print_pred pb))
    G.(quad values_gen values_gen pred_gen pred_gen)

let prop_filtered_truth =
  QCheck.Test.make ~count:1000 ~name:"filtered_truth = row-by-row count"
    arb_truth_case (fun (ka, kb, pred_a, pred_b) ->
      let p = Csdl.Profile.of_tables (table_of ka) "k" (table_of kb) "k" in
      same_bits
        (Csdl.Sentinel.filtered_truth p ~pred_a ~pred_b)
        (Oracle.filtered_truth p ~pred_a ~pred_b))

(* [Value.Tbl] keeps [Int x] and [Float (float_of_int x)] apart, so they
   form two groups: where they share a bucket, and past 2^53, where the
   float is rounded and a comparison with the rounded int tells the rows
   apart. Per-group counts stay the row-by-row counts. *)
let test_rounded_int_group () =
  let same_bucket x =
    Value.hash (Value.Int x) land 1023
    = Value.hash (Value.Float (float_of_int x)) land 1023
  in
  let rec first_from step x =
    if same_bucket x then x else first_from step (x + step)
  in
  List.iter
    (fun x ->
      let keys = [| Value.Int x; Value.Float (float_of_int x) |] in
      let ta = table_of keys in
      Alcotest.(check int)
        (Printf.sprintf "Int %d and its float: two groups" x)
        2
        (Value.Tbl.length (Table.group_by ta "k"));
      let p = Csdl.Profile.of_tables ta "k" (table_of keys) "k" in
      let rounded = int_of_float (float_of_int x) in
      List.iter
        (fun pred ->
          let pred_a = Some pred in
          Alcotest.(check (float 0.0))
            (Predicate.to_string pred)
            (Oracle.filtered_truth p ~pred_a ~pred_b:None)
            (Csdl.Sentinel.filtered_truth p ~pred_a ~pred_b:None))
        [
          Predicate.Compare (Predicate.Eq, "k", Value.Int rounded);
          Predicate.Compare (Predicate.Le, "k", Value.Int rounded);
          Predicate.Compare (Predicate.Eq, "k", Value.Int x);
          Predicate.Compare (Predicate.Eq, "k", Value.Float (float_of_int x));
        ])
    [ 3; two_53 + 1; first_from 1 0; first_from 2 (two_53 + 1) ]

(* ------------------------------------------------------------------ *)
(* (c) fingerprints reused only for the same table                      *)
(* ------------------------------------------------------------------ *)

(* equal cardinalities and schemas, different contents; table 3 is a
   copy of table 0 (equal content, another table) *)
let pool =
  lazy
    (let make i =
       Table.of_rows
         (Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ])
         (List.init 20 (fun r ->
              [| Value.Int (r * (i + 1) mod 5); Value.Int (r + i) |]))
     in
     [| make 0; make 1; make 2; make 0 |])

let add_entry store ~key (ia, ib, sample_first) =
  let pool = Lazy.force pool in
  let ta = pool.(ia) and tb = pool.(ib) in
  let profile = Csdl.Profile.of_tables ta "k" tb "k" in
  let est =
    Csdl.Estimator.prepare ~sample_first
      (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.5 profile
  in
  let syn = Csdl.Estimator.draw est (Prng.create 5) in
  Csdl.Store.add store ~key ~table_a:(string_of_int ia)
    ~table_b:(string_of_int ib) est syn

let fingerprints store key =
  match Csdl.Store.info store key with
  | Some i -> (i.Csdl.Store.i_fingerprint_a, i.Csdl.Store.i_fingerprint_b)
  | None -> Alcotest.fail ("no entry " ^ key)

let entry_gen =
  G.(triple (int_bound 3) (int_bound 3) (oneofa [| `A; `B |]))

let print_entries entries =
  String.concat "; "
    (List.map
       (fun (a, b, f) ->
         Printf.sprintf "%d-%d%s" a b (if f = `B then " swapped" else ""))
       entries)

(* Each entry's fingerprints, added after entries that share its tables,
   equal those it records alone in a fresh store, which are the tables'
   own fingerprints. *)
let prop_store_fingerprints =
  QCheck.Test.make ~count:100 ~name:"Store.add fingerprints, shared or not"
    (QCheck.make ~print:print_entries G.(list_size (int_range 1 6) entry_gen))
    (fun entries ->
      let pool = Lazy.force pool in
      let shared = Csdl.Store.create () in
      List.for_all
        (fun (i, ((ia, ib, _) as e)) ->
          let key = string_of_int i in
          add_entry shared ~key e;
          let alone = Csdl.Store.create () in
          add_entry alone ~key e;
          fingerprints shared key = fingerprints alone key
          && fingerprints alone key
             = (Table.fingerprint pool.(ia), Table.fingerprint pool.(ib)))
        (List.mapi (fun i e -> (i, e)) entries))

(* A loaded store's entries hold the resolved tables: an entry added
   after the load reuses their fingerprints, a swapped entry's included. *)
let test_store_fingerprints_after_load () =
  let pool = Lazy.force pool in
  let store = Csdl.Store.create () in
  add_entry store ~key:"s" (0, 1, `B);
  add_entry store ~key:"t" (2, 2, `A);
  let path = Filename.temp_file "repro-offline" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let loaded =
        Csdl.Store.load ~resolve_table:(fun n -> pool.(int_of_string n)) path
      in
      List.iter
        (fun (key, ((ia, ib, _) as e)) ->
          add_entry loaded ~key e;
          Alcotest.(check (pair int64 int64))
            key
            (Table.fingerprint pool.(ia), Table.fingerprint pool.(ib))
            (fingerprints loaded key))
        [
          ("u", (1, 0, `A)); ("v", (1, 2, `B)); ("w", (3, 0, `A));
          ("x", (0, 3, `B));
        ])

let () =
  Alcotest.run "offline"
    [
      ( "keyed sorts",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_values; prop_sorted_bindings; prop_budget_sort;
            prop_profile_sort;
          ] );
      ("group_by", List.map QCheck_alcotest.to_alcotest [ prop_group_by ]);
      ("shared sides", List.map QCheck_alcotest.to_alcotest [ prop_of_sides ]);
      ( "sentinel truths",
        QCheck_alcotest.to_alcotest prop_filtered_truth
        :: [
             Alcotest.test_case "rounded int group" `Quick
               test_rounded_int_group;
           ] );
      ( "fingerprints",
        [
          QCheck_alcotest.to_alcotest prop_store_fingerprints;
          Alcotest.test_case "after load" `Quick
            test_store_fingerprints_after_load;
        ] );
    ]
