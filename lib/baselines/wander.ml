open Repro_relation
module Prng = Repro_util.Prng

type t = {
  profile : Csdl.Profile.t;
  walks : int;
}

let name = "wander join"

let prepare ~walks profile =
  if walks < 1 then invalid_arg "Wander.prepare: walks must be >= 1";
  { profile; walks }

let walks t = t.walks

let estimate ?(pred_a = Predicate.True) ?(pred_b = Predicate.True) t prng =
  let a = t.profile.Csdl.Profile.a and b = t.profile.Csdl.Profile.b in
  let table_a = a.Csdl.Profile.table and table_b = b.Csdl.Profile.table in
  let n_a = a.Csdl.Profile.cardinality in
  if n_a = 0 then 0.0
  else begin
    let pass_a = Predicate.compile pred_a (Table.schema table_a) in
    let pass_b = Predicate.compile pred_b (Table.schema table_b) in
    let ia = Table.column_index table_a a.Csdl.Profile.column in
    let total = ref 0.0 in
    for _ = 1 to t.walks do
      let row_a = Table.row table_a (Prng.int prng n_a) in
      if pass_a row_a then
        match row_a.(ia) with
        | Value.Null -> ()
        | v -> (
            (* follow the join index uniformly into B *)
            match Value.Tbl.find_opt b.Csdl.Profile.groups v with
            | None -> ()
            | Some rows_b ->
                let b_v = Array.length rows_b in
                let row_b = Table.row table_b rows_b.(Prng.int prng b_v) in
                if pass_b row_b then
                  total :=
                    !total +. (float_of_int n_a *. float_of_int b_v))
    done;
    !total /. float_of_int t.walks
  end
