type side = { table : Table.t; column : string; predicate : Predicate.t }

let unfiltered table column = { table; column; predicate = Predicate.True }
let filtered table column predicate = { table; column; predicate }

let filtered_table { table; predicate; _ } =
  match predicate with
  | Predicate.True -> table
  | p -> Predicate.apply p table

let pair_count a b =
  let ta = filtered_table a and tb = filtered_table b in
  let fa = Table.frequency_map ta a.column in
  let fb = Table.frequency_map tb b.column in
  (* iterate over the smaller map *)
  let small, large =
    if Value.Tbl.length fa <= Value.Tbl.length fb then (fa, fb) else (fb, fa)
  in
  Value.Tbl.fold
    (fun v count acc ->
      match Value.Tbl.find_opt large v with
      | Some other -> acc + (count * other)
      | None -> acc)
    small 0

let star_count ~fact ~fact_predicate ~dimensions =
  let tf =
    match fact_predicate with
    | Predicate.True -> fact
    | p -> Predicate.apply p fact
  in
  let prepared =
    List.map
      (fun (fk_column, dim) ->
        let td = filtered_table dim in
        (Table.column_index tf fk_column, Table.frequency_map td dim.column))
      dimensions
  in
  Table.fold
    (fun acc row ->
      let product =
        List.fold_left
          (fun p (i, counts) ->
            if p = 0 then 0
            else
              match row.(i) with
              | Value.Null -> 0
              | v -> (
                  match Value.Tbl.find_opt counts v with
                  | Some c -> p * c
                  | None -> 0))
          1 prepared
      in
      acc + product)
    0 tf

let jvd ta col_a tb col_b =
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  if na = 0 || nb = 0 then 0.0
  else
    let da = float_of_int (Table.distinct_count ta col_a) /. float_of_int na in
    let db = float_of_int (Table.distinct_count tb col_b) /. float_of_int nb in
    Float.min da db
