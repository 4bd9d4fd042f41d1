open Repro_relation

type side = {
  table : Table.t;
  column : string;
  groups : int array Value.Tbl.t;
  frequencies : int Value.Tbl.t;
  cardinality : int;
  distinct : int;
}

type t = {
  a : side;
  b : side;
  shared_values : Value.t array;
  jvd : float;
  total_rows : int;
}

let side_of table column =
  let groups = Table.group_by table column in
  let frequencies = Value.Tbl.create (Value.Tbl.length groups) in
  Value.Tbl.iter
    (fun v rows -> Value.Tbl.add frequencies v (Array.length rows))
    groups;
  {
    table;
    column;
    groups;
    frequencies;
    cardinality = Table.cardinality table;
    distinct = Value.Tbl.length groups;
  }

let of_sides a b =
  let small, large =
    if a.distinct <= b.distinct then (a, b) else (b, a)
  in
  let shared = ref [] in
  Value.Tbl.iter
    (fun v _ -> if Value.Tbl.mem large.frequencies v then shared := v :: !shared)
    small.frequencies;
  (* Canonical order: downstream float folds (variance scans, budget
     solving) walk this array, and their results must not depend on
     hashtable insertion history — an incrementally rebuilt profile has to
     reproduce the from-scratch one bit for bit. *)
  let shared = Array.of_list !shared in
  Shard_key.sort_by Fun.id shared;
  let density side =
    if side.cardinality = 0 then 0.0
    else float_of_int side.distinct /. float_of_int side.cardinality
  in
  {
    a;
    b;
    shared_values = shared;
    jvd = Float.min (density a) (density b);
    total_rows = a.cardinality + b.cardinality;
  }

let of_tables table_a col_a table_b col_b =
  let a = side_of table_a col_a in
  of_sides a (side_of table_b col_b)

let frequency side v =
  match Value.Tbl.find_opt side.frequencies v with Some c -> c | None -> 0

let true_join_size t =
  Array.fold_left
    (fun acc v -> acc + (frequency t.a v * frequency t.b v))
    0 t.shared_values

let swap t = { t with a = t.b; b = t.a }

let is_key_side side = side.distinct = side.cardinality && side.cardinality > 0
