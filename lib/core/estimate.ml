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

(* A predicate naming a column the side lacks is the caller's mistake:
   [run_checked_flat] turns this into [Bad_input], worded as
   [Predicate.compile] words it. *)
exception Unknown_column of string

let col_index schema name =
  match Schema.index_of schema name with
  | i -> i
  | exception Not_found -> raise (Unknown_column name)

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

(* B-side factor shared by both methods: S''_B(v)/u_v + I''_B(v). A
   sampler whose budget fits only the sentries clamps the second-level
   rate to u_v = 0; such a value has no sampled rows, so its factor is its
   sentry indicator alone. The [u_v <= 0.0] guard says so explicitly
   instead of relying on [count = 0]. *)
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

(* The learner on the filtered first side: x_v of Eq. 7 as a function of
   the side's position, and the virtual sample size. An empty DL input (a
   filtered first side that holds only sentries, or rates clamped to
   q_v = 0) is valid: the learner is not called, every x_v is 0, and the
   sentry indicators carry the estimate. An invalid [dl_config] is refused
   either way. *)
let learn_side ?obs ?dl_config ~virtual_ratio (a : Flat.side)
    (fa : filtered_side) =
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
  match !virtual_counts with
  | [] ->
      Discrete_learning.check_config
        (Option.value dl_config ~default:Discrete_learning.default_config)
      |> Result.map (fun () -> ((fun (_ : int) -> 0.0), 0.0))
  | counts ->
      Discrete_learning.learn_checked ?obs ?config:dl_config
        (Array.of_list counts)
      |> Result.map (fun t ->
             let x_v j =
               let a_count = fa.counts.(j) in
               if a_count = 0 || a.Flat.q_v.(j) <= 0.0 then 0.0
               else
                 Discrete_learning.probability_of_count t
                   (float_of_int a_count *. virtual_ratio a.Flat.q_v.(j))
             in
             (x_v, Discrete_learning.sample_size t))

(* With the default learner on the virtual sample, the DL input and every
   x_v are functions of the flat and the first side's filtered counts: the
   flat's memo learns each distinct counts array once and keeps x_v per
   position. *)
let learn_memoized ?obs ~virtual_ratio (flat : Flat.t) (fa : filtered_side) =
  let a = flat.Flat.a in
  Flat.find_or_learn flat fa.counts (fun () ->
      learn_side ?obs ~virtual_ratio a fa
      |> Result.map (fun (x_v, virtual_sample_size) ->
             {
               Flat.x_v = Array.init (Array.length a.Flat.values) x_v;
               virtual_sample_size;
             }))
  |> Result.map (fun { Flat.x_v; virtual_sample_size } ->
         ((fun j -> x_v.(j)), virtual_sample_size))

(* Eq. 7 with the learned x_v. *)
let dl_estimate ?obs ?dl_config ~virtual_sample (flat : Flat.t)
    ~sentry_spec ~selectivity (fa : filtered_side) (fb : filtered_side) =
  let { Flat.resolved; n_prime; _ } = flat in
  let base_q = resolved.Budget.base_q in
  (* Ablation hook: without the Eq. 6 virtual sample, raw counts feed the
     learner directly (count ratio forced to 1). *)
  let virtual_ratio q_v = if virtual_sample then base_q /. q_v else 1.0 in
  let a = flat.Flat.a and b = flat.Flat.b and b_to_a = flat.Flat.b_to_a in
  let learned =
    if virtual_sample && Option.is_none dl_config then
      learn_memoized ?obs ~virtual_ratio flat fa
    else learn_side ?obs ?dl_config ~virtual_ratio a fa
  in
  match learned with
  | Error fault -> Error fault
  | Ok (x_of, virtual_sample_size) ->
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
          let a_term =
            (x_of j *. n_filtered)
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
      Ok (!total, !contributing, virtual_sample_size)

let method_label = function
  | Spec.Scaling -> "scaling"
  | Spec.Discrete_learning -> "dl"

let compute ~obs ?dl_config ~virtual_sample ~pred_a ~pred_b (flat : Flat.t) =
  let resolved = flat.Flat.resolved in
  let meth = method_label resolved.Budget.spec.Spec.method_ in
  Obs.Span.with_ obs ~name:"estimate.run" ~attrs:[ ("method", meth) ]
  @@ fun () ->
  Obs.count obs ~labels:[ ("method", meth) ] "estimate.runs" 1;
  let sentry_spec = resolved.Budget.spec.Spec.sentry in
  let fa = filter_side flat.Flat.a pred_a in
  let fb = filter_side flat.Flat.b pred_b in
  (* An empty filtered sample means the estimate is "no evidence", not a
     measured zero — the failure mode behind the paper's infinite q-errors
     on selective predicates. Nothing is solved behind it. *)
  if fa.tuples = 0 || fb.tuples = 0 then begin
    Obs.count obs "estimate.degenerate" 1;
    Error (Fault.Empty_filtered_sample (if fa.tuples = 0 then Fault.A else Fault.B))
  end
  else
    let selectivity_a =
      let total = flat.Flat.tuples_a in
      if total = 0 then 0.0 else float_of_int fa.tuples /. float_of_int total
    in
    let estimate =
      match resolved.Budget.spec.Spec.method_ with
      | Spec.Scaling ->
          let estimate, contributing = scaling_estimate flat ~sentry_spec fa fb in
          Ok (estimate, contributing, 0.0)
      | Spec.Discrete_learning ->
          dl_estimate ~obs ?dl_config ~virtual_sample flat ~sentry_spec
            ~selectivity:selectivity_a fa fb
    in
    Result.bind estimate
      (fun (estimate, contributing_values, virtual_sample_size) ->
        if not (Float.is_finite estimate) || estimate < 0.0 then
          Error (Fault.Numeric { what = "join size estimate"; value = estimate })
        else
          Ok
            {
              estimate;
              filtered_a_tuples = fa.tuples;
              filtered_b_tuples = fb.tuples;
              selectivity_a;
              virtual_sample_size;
              contributing_values;
            })

let run_checked_flat ?(obs = Obs.null) ?dl_config ?(virtual_sample = true)
    ?(pred_a = Predicate.True) ?(pred_b = Predicate.True) (flat : Flat.t) =
  match flat.Flat.verdict with
  | Some fault -> Error fault
  | None -> (
      match compute ~obs ?dl_config ~virtual_sample ~pred_a ~pred_b flat with
      | result -> result
      | exception Unknown_column name ->
          Error
            (Fault.Bad_input
               (Printf.sprintf "Predicate: no column named %S" name))
      | exception exn -> Error (Fault.Corrupt_synopsis (Printexc.to_string exn)))

let value = function
  | Ok b -> Ok b.estimate
  | Error (Fault.Empty_filtered_sample _) -> Ok 0.0
  | Error fault -> Error fault
