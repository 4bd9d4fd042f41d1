(* Reference oracle for the one estimate function: lib/core/estimate.ml as
   it stood before its six entry points were folded into
   [run_checked_flat], kept verbatim below the [open Csdl]. Its unchecked
   [run_with_breakdown_flat] is the value [batch], the bake-off and the
   experiment grid printed; the library must match it bit for bit
   wherever the oracle found evidence on both sides. *)

[@@@ocaml.warning "-32"]

open Csdl

open Repro_relation
module Obs = Repro_obs.Obs
module Flat = Synopsis_flat

type breakdown = {
  estimate : float;
  filtered_a_tuples : int;
  filtered_b_tuples : int;
  selectivity_a : float;
  virtual_sample_size : float;
  contributing_values : int;
  degenerate : bool;
}

let indicator b = if b then 1.0 else 0.0

(* Filtered view of one side under the query's predicate, positionally
   aligned with the side's value arrays. Computed once per query — the
   predicate runs exactly once per sampled row, and every downstream pass
   (tuple totals, scaling, DL input distribution, per-value terms) reads
   these arrays instead of re-filtering. *)
type filtered_side = {
  counts : int array;  (** passing non-sentry tuples per value *)
  sentries : bool array;  (** sentry exists and passes, per value *)
  tuples : int;  (** total passing tuples including sentries *)
}

let test_of = function
  | Predicate.Eq -> fun c -> c = 0
  | Predicate.Ne -> fun c -> c <> 0
  | Predicate.Lt -> fun c -> c < 0
  | Predicate.Le -> fun c -> c <= 0
  | Predicate.Gt -> fun c -> c > 0
  | Predicate.Ge -> fun c -> c >= 0

(* same wording as [Predicate.compile], which run_checked relies on *)
let col_index schema name =
  match Schema.index_of schema name with
  | i -> i
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Predicate: no column named %S" name)

(* Compile a predicate against a side's materialized columns: the result
   tests a {e position} in the flat layout, not a row of the base table.
   Semantics mirror [Predicate.compile] row by row (two-valued logic, Null
   comparisons false, LIKE only on strings); unboxed Int/Float columns get
   direct immediate comparisons — no pointer dereference per tuple. Int
   columns compare exactly against Int constants; every mixed-type case
   goes through the same [Value.compare] ladder as the row path. *)
let rec compile_positions (side : Flat.side) p =
  let schema = side.Flat.schema in
  match p with
  | Predicate.True -> fun (_ : int) -> true
  | Predicate.False -> fun _ -> false
  | Predicate.Compare (op, name, constant) -> (
      let test = test_of op in
      match side.Flat.cols.(col_index schema name) with
      | Flat.Ints a -> (
          let get = Bigarray.Array1.unsafe_get a in
          match constant with
          | Value.Int k -> (
              match op with
              | Predicate.Eq -> fun j -> get j = k
              | Predicate.Ne -> fun j -> get j <> k
              | Predicate.Lt -> fun j -> get j < k
              | Predicate.Le -> fun j -> get j <= k
              | Predicate.Gt -> fun j -> get j > k
              | Predicate.Ge -> fun j -> get j >= k)
          | Value.Float f -> fun j -> test (Float.compare (float_of_int (get j)) f)
          | Value.Null | Value.Str _ ->
              (* constructor-rank comparison: same outcome for every Int *)
              let r = test (Value.compare (Value.Int 0) constant) in
              fun _ -> r)
      | Flat.Floats a -> (
          let get = Bigarray.Array1.unsafe_get a in
          match constant with
          | Value.Float f -> fun j -> test (Float.compare (get j) f)
          | Value.Int k ->
              let f = float_of_int k in
              fun j -> test (Float.compare (get j) f)
          | Value.Null | Value.Str _ ->
              let r = test (Value.compare (Value.Float 0.0) constant) in
              fun _ -> r)
      | Flat.Boxed a -> (
          fun j ->
            match a.(j) with
            | Value.Null -> false
            | v -> test (Value.compare v constant)))
  | Predicate.Like_prefix (name, prefix) -> (
      match side.Flat.cols.(col_index schema name) with
      | Flat.Ints _ | Flat.Floats _ -> fun _ -> false
      | Flat.Boxed a -> (
          fun j ->
            match a.(j) with
            | Value.Str s -> Predicate.string_has_prefix ~prefix s
            | Value.Null | Value.Int _ | Value.Float _ -> false))
  | Predicate.Like_contains (name, needle) -> (
      match side.Flat.cols.(col_index schema name) with
      | Flat.Ints _ | Flat.Floats _ -> fun _ -> false
      | Flat.Boxed a -> (
          fun j ->
            match a.(j) with
            | Value.Str s -> Predicate.string_contains ~needle s
            | Value.Null | Value.Int _ | Value.Float _ -> false))
  | Predicate.And (a, b) ->
      let fa = compile_positions side a and fb = compile_positions side b in
      fun j -> fa j && fb j
  | Predicate.Or (a, b) ->
      let fa = compile_positions side a and fb = compile_positions side b in
      fun j -> fa j || fb j
  | Predicate.Not a ->
      let fa = compile_positions side a in
      fun j -> not (fa j)

let filter_side (side : Flat.side) pred =
  let n = Array.length side.Flat.values in
  let counts = Array.make n 0 in
  let sentries = Array.make n false in
  let total = ref 0 in
  let row_off = side.Flat.row_off in
  (match pred with
  | Predicate.True ->
      (* every tuple passes: counts come straight off the offset ranges,
         no tuple is ever touched *)
      let sentry = side.Flat.sentry in
      for i = 0 to n - 1 do
        let c = row_off.(i + 1) - row_off.(i) in
        counts.(i) <- c;
        let s = sentry.(i) >= 0 in
        sentries.(i) <- s;
        total := !total + c + Bool.to_int s
      done
  | p ->
      let pass = compile_positions side p in
      let sentry_pos = side.Flat.sentry_pos in
      for i = 0 to n - 1 do
        let c = ref 0 in
        for j = row_off.(i) to row_off.(i + 1) - 1 do
          if pass j then incr c
        done;
        counts.(i) <- !c;
        let sp = sentry_pos.(i) in
        let s = sp >= 0 && pass sp in
        sentries.(i) <- s;
        total := !total + !c + Bool.to_int s
      done);
  { counts; sentries; tuples = !total }

(* B-side factor shared by both methods: S''_B(v)/u_v + I''_B(v). The
   [u_v <= 0.0] guard keeps a corrupt zero rate from turning the unchecked
   path into a silent [inf] — checked estimation already rejects such an
   entry during validation, and for any valid synopsis (u_v > 0) the
   branch never fires, so guarded and historical results are
   bit-identical. *)
let b_factor ~count ~sentry ~u_v ~sentry_spec =
  let scaled =
    if count = 0 || u_v <= 0.0 then 0.0 else float_of_int count /. u_v
  in
  if sentry_spec then scaled +. indicator sentry else scaled

(* Both estimates below walk the B side positionally — flat-array order is
   the historical hashtable iteration order, so the float accumulation
   order (and thus every printed %.17g digit) is unchanged. The A side is
   joined through the precomputed [b_to_a] position map: no per-query
   hashtable lookups. *)

let scaling_estimate (flat : Flat.t) ~sentry_spec (fa : filtered_side)
    (fb : filtered_side) =
  let a = flat.Flat.a and b = flat.Flat.b and b_to_a = flat.Flat.b_to_a in
  let total = ref 0.0 in
  let contributing = ref 0 in
  for i = 0 to Array.length b.Flat.values - 1 do
    let j = b_to_a.(i) in
    (* j < 0 cannot happen on a valid synopsis: S_B ⊆ B ⋉ S_A *)
    if j >= 0 then begin
      let a_count = fa.counts.(j) in
      let a_scaled =
        if a_count = 0 || a.Flat.q_v.(j) <= 0.0 then 0.0
        else float_of_int a_count /. a.Flat.q_v.(j)
      in
      let a_term =
        if sentry_spec then a_scaled +. indicator fa.sentries.(j)
        else a_scaled
      in
      let b_term =
        b_factor ~count:fb.counts.(i) ~sentry:fb.sentries.(i)
          ~u_v:b.Flat.q_v.(i) ~sentry_spec
      in
      let term = a_term *. b_term /. a.Flat.p_v.(j) in
      if term > 0.0 then begin
        total := !total +. term;
        incr contributing
      end
    end
  done;
  (!total, !contributing)

let dl_estimate ~learn ~virtual_sample (flat : Flat.t) ~sentry_spec
    (fa : filtered_side) (fb : filtered_side) =
  let { Flat.resolved; n_prime; _ } = flat in
  let base_q = resolved.Budget.base_q in
  (* Ablation hook: without the Eq. 6 virtual sample, raw counts feed the
     learner directly (count ratio forced to 1). *)
  let virtual_ratio q_v = if virtual_sample then base_q /. q_v else 1.0 in
  let a = flat.Flat.a and b = flat.Flat.b and b_to_a = flat.Flat.b_to_a in
  (* DL input distribution from the already-filtered A side. The list is
     built by prepending in scan order — the resulting array is in reverse
     scan order, as it always was (the learner's output depends on element
     order through float summation). *)
  let virtual_counts = ref [] in
  for i = 0 to Array.length a.Flat.values - 1 do
    let c = fa.counts.(i) in
    if c > 0 && a.Flat.q_v.(i) > 0.0 then begin
      let virtual_count = float_of_int c *. virtual_ratio a.Flat.q_v.(i) in
      if virtual_count > 0.0 then
        virtual_counts := virtual_count :: !virtual_counts
    end
  done;
  let total_tuples = flat.Flat.tuples_a in
  if total_tuples = 0 then (0.0, 0, 0.0, 0.0)
  else begin
    let selectivity =
      float_of_int fa.tuples /. float_of_int total_tuples
    in
    let learned = learn (Array.of_list !virtual_counts) in
    (* Lemma 1 / Eq. 6: the virtual sample is drawn from the non-sentry
       tuples of the first-level sampled values, a population of
       N' - #sentries — each sentry sits outside its value's second-level
       draw and re-enters only through the +1 indicator below. Scaling by
       the full N' would count every sentry twice (exactly +1 per
       contributing value at theta = 1). *)
    let virtual_population =
      if sentry_spec then
        Float.max 0.0 (n_prime -. float_of_int flat.Flat.sentries_a)
      else n_prime
    in
    let n_filtered = virtual_population *. selectivity in
    let total = ref 0.0 in
    let contributing = ref 0 in
    for i = 0 to Array.length b.Flat.values - 1 do
      let j = b_to_a.(i) in
      if j >= 0 then begin
        let a_count = fa.counts.(j) in
        let x_v =
          if a_count = 0 || a.Flat.q_v.(j) <= 0.0 then 0.0
          else
            Discrete_learning.probability_of_count learned
              (float_of_int a_count *. virtual_ratio a.Flat.q_v.(j))
        in
        let a_term =
          (x_v *. n_filtered)
          +. (if sentry_spec then indicator fa.sentries.(j) else 0.0)
        in
        let b_term =
          b_factor ~count:fb.counts.(i) ~sentry:fb.sentries.(i)
            ~u_v:b.Flat.q_v.(i) ~sentry_spec
        in
        let term = a_term *. b_term /. a.Flat.p_v.(j) in
        if term > 0.0 then begin
          total := !total +. term;
          incr contributing
        end
      end
    done;
    (!total, !contributing, selectivity, Discrete_learning.sample_size learned)
  end

let method_label = function
  | Spec.Scaling -> "scaling"
  | Spec.Discrete_learning -> "dl"

(* Shared core: [learn] abstracts over the raising/absorbing learner
   (legacy path) and the checked one (recording its fault in a ref). *)
let breakdown_with ?(obs = Obs.null) ~learn ~virtual_sample ~pred_a ~pred_b
    (flat : Flat.t) =
  let resolved = flat.Flat.resolved in
  let meth = method_label resolved.Budget.spec.Spec.method_ in
  Obs.Span.with_ obs ~name:"estimate.run" ~attrs:[ ("method", meth) ]
  @@ fun () ->
  Obs.count obs ~labels:[ ("method", meth) ] "estimate.runs" 1;
  let sentry_spec = resolved.Budget.spec.Spec.sentry in
  let fa = filter_side flat.Flat.a pred_a in
  let fb = filter_side flat.Flat.b pred_b in
  let filtered_a_tuples = fa.tuples in
  let filtered_b_tuples = fb.tuples in
  (* An empty filtered sample means the estimate is "no evidence", not a
     measured zero — the failure mode behind the paper's infinite q-errors
     on selective predicates. Flag it so callers can tell the two apart. *)
  let degenerate =
    flat.Flat.tuples_a = 0
    || filtered_a_tuples = 0 || filtered_b_tuples = 0
  in
  if degenerate then Obs.count obs "estimate.degenerate" 1;
  match resolved.Budget.spec.Spec.method_ with
  | Spec.Scaling ->
      let estimate, contributing =
        scaling_estimate flat ~sentry_spec fa fb
      in
      let selectivity_a =
        let total = flat.Flat.tuples_a in
        if total = 0 then 0.0
        else float_of_int filtered_a_tuples /. float_of_int total
      in
      {
        estimate;
        filtered_a_tuples;
        filtered_b_tuples;
        selectivity_a;
        virtual_sample_size = 0.0;
        contributing_values = contributing;
        degenerate;
      }
  | Spec.Discrete_learning ->
      let estimate, contributing, selectivity_a, virtual_sample_size =
        dl_estimate ~learn ~virtual_sample flat ~sentry_spec fa fb
      in
      {
        estimate;
        filtered_a_tuples;
        filtered_b_tuples;
        selectivity_a;
        virtual_sample_size;
        contributing_values = contributing;
        degenerate;
      }

let run_with_breakdown_flat ?(obs = Obs.null) ?dl_config
    ?(virtual_sample = true) ?(pred_a = Predicate.True)
    ?(pred_b = Predicate.True) flat =
  breakdown_with ~obs
    ~learn:(Discrete_learning.learn ~obs ?config:dl_config)
    ~virtual_sample ~pred_a ~pred_b flat

let run_flat ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b flat =
  (run_with_breakdown_flat ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b
     flat)
    .estimate

let run_with_breakdown ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b
    synopsis =
  run_with_breakdown_flat ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b
    (Flat.of_synopsis synopsis)

let run ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b synopsis =
  (run_with_breakdown ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b synopsis)
    .estimate

(* ---------------- checked entry points ---------------- *)

let run_checked_flat ?(obs = Obs.null) ?dl_config ?(virtual_sample = true)
    ?(pred_a = Predicate.True) ?(pred_b = Predicate.True) (flat : Flat.t) =
  match flat.Flat.verdict with
  | Some fault -> Error fault
  | None -> (
      let learner_fault = ref None in
      let learn counts =
        match
          Discrete_learning.learn_checked ~obs ?config:dl_config counts
        with
        | Ok t -> t
        | Error fault ->
            if !learner_fault = None then learner_fault := Some fault;
            (* neutral placeholder; the recorded fault discards the result *)
            Discrete_learning.learn counts
      in
      match
        breakdown_with ~obs ~learn ~virtual_sample ~pred_a ~pred_b flat
      with
      | exception exn ->
          Error (Fault.Corrupt_synopsis (Printexc.to_string exn))
      | breakdown -> (
          if breakdown.filtered_a_tuples = 0 then
            Error (Fault.Empty_filtered_sample Fault.A)
          else if breakdown.filtered_b_tuples = 0 then
            Error (Fault.Empty_filtered_sample Fault.B)
          else
            match !learner_fault with
            | Some fault -> Error fault
            | None ->
                if
                  not (Float.is_finite breakdown.estimate)
                  || breakdown.estimate < 0.0
                then
                  Error
                    (Fault.Numeric
                       {
                         what = "join size estimate";
                         value = breakdown.estimate;
                       })
                else Ok breakdown))

let run_checked ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b synopsis =
  match Flat.of_synopsis synopsis with
  | exception exn -> Error (Fault.Corrupt_synopsis (Printexc.to_string exn))
  | flat ->
      run_checked_flat ?obs ?dl_config ?virtual_sample ?pred_a ?pred_b flat
