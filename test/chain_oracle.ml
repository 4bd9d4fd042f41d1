(* Reference oracle for 3-table chains: the [Chain] module that
   [Chain_n] at k = 3 replaced, and the [Join.chain3_count] its
   [true_size] called, kept verbatim except that library modules are
   reached through [Csdl] and [chain3_count] is local. When every fk
   resolves, [Chain_n] must match it bit for bit in estimate, true size
   and stored tuples. *)

open Repro_relation
module Prng = Repro_util.Prng
module Budget = Csdl.Budget
module Discrete_learning = Csdl.Discrete_learning
module Opt = Csdl.Opt
module Profile = Csdl.Profile
module Sample = Csdl.Sample
module Spec = Csdl.Spec
module Synopsis = Csdl.Synopsis

(* ---------------- Join.chain3_count ---------------- *)

let filtered_table { Join.table; predicate; _ } =
  match predicate with
  | Predicate.True -> table
  | p -> Predicate.apply p table

let chain3_count ~a ~b ~b_fk ~c =
  (* Right-to-left: count C rows per FK value, propagate through B, then
     through A. PK columns may in fact have duplicates (we do not enforce
     key constraints here), so we propagate full counts. *)
  let tc = filtered_table c in
  let c_counts = Table.frequency_map tc c.column in
  let tb = filtered_table b in
  let ib_pk = Table.column_index tb b.column in
  let ib_fk = Table.column_index tb b_fk in
  (* per A-key value: number of (B, C+) partial join rows *)
  let partial = Value.Tbl.create 1024 in
  Table.iter
    (fun row_b ->
      match (row_b.(ib_fk), row_b.(ib_pk)) with
      | Value.Null, _ | _, Value.Null -> ()
      | fk, pk -> (
          match Value.Tbl.find_opt c_counts pk with
          | None -> ()
          | Some c_count -> (
              match Value.Tbl.find_opt partial fk with
              | Some acc -> Value.Tbl.replace partial fk (acc + c_count)
              | None -> Value.Tbl.add partial fk c_count)))
    tb;
  let ta = filtered_table a in
  let ia = Table.column_index ta a.column in
  Table.fold
    (fun acc row_a ->
      match row_a.(ia) with
      | Value.Null -> acc
      | v -> (
          match Value.Tbl.find_opt partial v with
          | Some count -> acc + count
          | None -> acc))
    0 ta

(* ---------------- Chain ---------------- *)

type tables = {
  a : Table.t;
  a_pk : string;
  b : Table.t;
  b_pk : string;
  b_fk : string;
  c : Table.t;
  c_fk : string;
}

type t = {
  spec : Spec.t;
  tables : tables;
  profile : Profile.t;  (* C as side a (sampled), B.pk as side b *)
  resolved : Budget.t;
  b_groups : int array Value.Tbl.t;  (* B.pk -> B rows *)
  a_groups : int array Value.Tbl.t;  (* A.pk -> A rows *)
  b_fk_index : int;
}

(* Per sampled C-value v: the joinable B rows (PK -> at most one) and, for
   each, the joinable A rows of its FK value. *)
type link = { b_row : int; a_rows : int array }

type synopsis = {
  sample_c : Sample.t;
  links : link array Value.Tbl.t;
  n0 : float;
  prepared : t;
}

let jvd tables = Join.jvd tables.b tables.b_pk tables.c tables.c_fk

let prepare spec ~theta tables =
  let profile =
    Profile.of_tables tables.c tables.c_fk tables.b tables.b_pk
  in
  (* The budget base is the whole chain's data size, not just C and B. *)
  let profile =
    {
      profile with
      Profile.total_rows =
        Table.cardinality tables.a + Table.cardinality tables.b
        + Table.cardinality tables.c;
    }
  in
  let resolved = Budget.resolve spec ~theta profile in
  {
    spec;
    tables;
    profile;
    resolved;
    b_groups = Table.group_by tables.b tables.b_pk;
    a_groups = Table.group_by tables.a tables.a_pk;
    b_fk_index = Table.column_index tables.b tables.b_fk;
  }

let prepare_opt ?threshold ~theta tables =
  let spec = Opt.spec_for ?threshold ~jvd:(jvd tables) () in
  prepare spec ~theta tables

let draw t prng =
  let sample_c = Sample.first_side ~base:(Synopsis.base_of_prng prng) ~profile:t.profile
      ~resolved:t.resolved () in
  let links = Value.Tbl.create 256 in
  let n0 = ref 0.0 in
  Value.Tbl.iter
    (fun v (_ : Sample.entry) ->
      n0 := !n0 +. float_of_int (Profile.frequency t.profile.Profile.a v);
      match Value.Tbl.find_opt t.b_groups v with
      | None -> ()
      | Some b_rows ->
          let link_of b_row =
            let u = (Table.row t.tables.b b_row).(t.b_fk_index) in
            let a_rows =
              match u with
              | Value.Null -> [||]
              | u -> (
                  match Value.Tbl.find_opt t.a_groups u with
                  | Some rows -> rows
                  | None -> [||])
            in
            { b_row; a_rows }
          in
          Value.Tbl.add links v (Array.map link_of b_rows))
    sample_c.Sample.entries;
  { sample_c; links; n0 = !n0; prepared = t }

let compile_opt table = function
  | Predicate.True -> fun (_ : Value.t array) -> true
  | p -> Predicate.compile p (Table.schema table)

let estimate ?dl_config ?(pred_a = Predicate.True) ?(pred_b = Predicate.True)
    ?(pred_c = Predicate.True) t synopsis =
  let pass_a = compile_opt t.tables.a pred_a in
  let pass_b = compile_opt t.tables.b pred_b in
  let pass_c = compile_opt t.tables.c pred_c in
  let sample_c = synopsis.sample_c in
  let total_tuples = Sample.total_tuples sample_c in
  if total_tuples = 0 then 0.0
  else begin
    let base_q = t.resolved.Budget.base_q in
    (* Filtered counts of the C sample, for both selectivity and DL. *)
    let filtered = Value.Tbl.create (Value.Tbl.length sample_c.Sample.entries) in
    let filtered_tuples = ref 0 in
    let virtual_counts = ref [] in
    Value.Tbl.iter
      (fun v (entry : Sample.entry) ->
        let count = Sample.filtered_count sample_c pass_c entry in
        let sentry = Sample.sentry_passes sample_c pass_c entry in
        Value.Tbl.add filtered v (count, sentry);
        filtered_tuples := !filtered_tuples + count + (if sentry then 1 else 0);
        if count > 0 && entry.Sample.q_v > 0.0 then begin
          let virtual_count = float_of_int count *. base_q /. entry.Sample.q_v in
          if virtual_count > 0.0 then
            virtual_counts := virtual_count :: !virtual_counts
        end)
      sample_c.Sample.entries;
    let selectivity =
      float_of_int !filtered_tuples /. float_of_int total_tuples
    in
    (* Virtual-sample population: the sentries sit outside the second-level
       draw (see Estimate.dl_estimate) and must not be scaled by x_v. *)
    let n0_virtual =
      if t.spec.Spec.sentry then
        Float.max 0.0
          (synopsis.n0 -. float_of_int (Sample.sentry_count sample_c))
      else synopsis.n0
    in
    let n0_filtered = n0_virtual *. selectivity in
    let learned =
      match t.spec.Spec.method_ with
      | Spec.Discrete_learning ->
          Some
            (Discrete_learning.learn ?config:dl_config
               (Array.of_list !virtual_counts))
      | Spec.Scaling -> None
    in
    let sentry_spec = t.spec.Spec.sentry in
    let total = ref 0.0 in
    Value.Tbl.iter
      (fun v links ->
        let entry = Value.Tbl.find sample_c.Sample.entries v in
        let count, sentry = Value.Tbl.find filtered v in
        let c_factor =
          match learned with
          | Some learned ->
              let x_v =
                if count = 0 || entry.Sample.q_v <= 0.0 then 0.0
                else
                  Discrete_learning.probability_of_count learned
                    (float_of_int count *. base_q /. entry.Sample.q_v)
              in
              (x_v *. n0_filtered)
              +. if sentry_spec && sentry then 1.0 else 0.0
          | None ->
              let scaled =
                if count = 0 then 0.0
                else float_of_int count /. entry.Sample.q_v
              in
              scaled +. if sentry_spec && sentry then 1.0 else 0.0
        in
        if c_factor > 0.0 then begin
          (* Eq. 8: one term per (u, v) pair whose B and A witnesses pass. *)
          let path_count =
            Array.fold_left
              (fun acc { b_row; a_rows } ->
                if pass_b (Table.row t.tables.b b_row) then
                  let a_ok =
                    Array.exists
                      (fun a_row -> pass_a (Table.row t.tables.a a_row))
                      a_rows
                  in
                  if a_ok then acc + 1 else acc
                else acc)
              0 links
          in
          if path_count > 0 then
            total :=
              !total
              +. (float_of_int path_count *. c_factor /. entry.Sample.p_v)
        end)
      synopsis.links;
    !total
  end

let true_size ?(pred_a = Predicate.True) ?(pred_b = Predicate.True)
    ?(pred_c = Predicate.True) tables =
  chain3_count
    ~a:(Join.filtered tables.a tables.a_pk pred_a)
    ~b:(Join.filtered tables.b tables.b_pk pred_b)
    ~b_fk:tables.b_fk
    ~c:(Join.filtered tables.c tables.c_fk pred_c)

let synopsis_tuples synopsis =
  let links =
    Value.Tbl.fold
      (fun _ links acc ->
        Array.fold_left
          (fun acc { a_rows; _ } -> acc + 1 + min 1 (Array.length a_rows))
          acc links)
      synopsis.links 0
  in
  Sample.total_tuples synopsis.sample_c + links

let spec t = t.spec
