(* Reference oracle for the offline build: the code the per-value rewrite
   replaced, kept verbatim except that it reaches a table's rows through
   the public [Table] API. [Shard_key.compare] itself stays in the library
   and is the sort oracle: the old sorts called it on every comparison.
   The library must match these bit for bit. *)

open Repro_relation
module Profile = Csdl.Profile
module Shard_key = Csdl.Shard_key

(* Table.group_by: a list cell per row, each list copied reversed. *)
let group_by t name =
  let i = Table.column_index t name in
  let groups = Value.Tbl.create 1024 in
  Table.iteri
    (fun row_index row ->
      match row.(i) with
      | Value.Null -> ()
      | v -> (
          match Value.Tbl.find_opt groups v with
          | Some acc -> acc := row_index :: !acc
          | None -> Value.Tbl.add groups v (ref [ row_index ])))
    t;
  let out = Value.Tbl.create (Value.Tbl.length groups) in
  Value.Tbl.iter
    (fun v acc ->
      let arr = Array.of_list !acc in
      (* rows were prepended, so reverse into increasing order *)
      let n = Array.length arr in
      let sorted = Array.init n (fun k -> arr.(n - 1 - k)) in
      Value.Tbl.add out v sorted)
    groups;
  out

(* Shard_key's sorts, comparing through [Shard_key.compare]. *)
let sorted_bindings tbl =
  let acc = ref [] in
  Value.Tbl.iter (fun k v -> acc := (k, v) :: !acc) tbl;
  List.sort (fun (a, _) (b, _) -> Shard_key.compare a b) !acc

let sorted_values values =
  let values = Array.copy values in
  Array.sort Shard_key.compare values;
  values

(* Budget.prepare's sort of its (value, a_v, b_v) triples. *)
let sort_triples arr =
  Array.sort (fun (a, _, _) (b, _, _) -> Shard_key.compare a b) arr

(* Profile.of_tables, over the oracle's [group_by]. *)
let side_of table column =
  let groups = group_by table column in
  let frequencies = Value.Tbl.create (Value.Tbl.length groups) in
  Value.Tbl.iter
    (fun v rows -> Value.Tbl.add frequencies v (Array.length rows))
    groups;
  {
    Profile.table;
    column;
    groups;
    frequencies;
    cardinality = Table.cardinality table;
    distinct = Value.Tbl.length groups;
  }

let of_tables table_a col_a table_b col_b =
  let a = side_of table_a col_a and b = side_of table_b col_b in
  let small, large =
    if a.Profile.distinct <= b.Profile.distinct then (a, b) else (b, a)
  in
  let shared = ref [] in
  Value.Tbl.iter
    (fun v _ ->
      if Value.Tbl.mem large.Profile.frequencies v then shared := v :: !shared)
    small.Profile.frequencies;
  let shared = Array.of_list !shared in
  Array.sort Shard_key.compare shared;
  let density (side : Profile.side) =
    if side.Profile.cardinality = 0 then 0.0
    else
      float_of_int side.Profile.distinct /. float_of_int side.Profile.cardinality
  in
  {
    Profile.a;
    b;
    shared_values = shared;
    jvd = Float.min (density a) (density b);
    total_rows = a.Profile.cardinality + b.Profile.cardinality;
  }

(* Sentinel.filtered_truth: every predicate evaluated row by row. *)
let filtered_truth (profile : Profile.t) ~pred_a ~pred_b =
  let side_counter (side : Profile.side) pred =
    match pred with
    | None ->
        fun v ->
          (match Value.Tbl.find_opt side.Profile.groups v with
          | Some rows -> Array.length rows
          | None -> 0)
    | Some p ->
        let keep = Predicate.compile p (Table.schema side.Profile.table) in
        fun v ->
          (match Value.Tbl.find_opt side.Profile.groups v with
          | None -> 0
          | Some rows ->
              Array.fold_left
                (fun acc r ->
                  if keep (Table.row side.Profile.table r) then acc + 1
                  else acc)
                0 rows)
  in
  let ca = side_counter profile.Profile.a pred_a in
  let cb = side_counter profile.Profile.b pred_b in
  Array.fold_left
    (fun acc v -> acc +. float_of_int (ca v * cb v))
    0.0 profile.Profile.shared_values
