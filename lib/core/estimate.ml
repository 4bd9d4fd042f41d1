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

(* A side under the query's predicate: passing non-sentry tuples per
   value, whether each value's sentry exists and passes, and the total
   passing tuples, sentries included ({!Synopsis_flat.view}). *)
type filtered_side = Flat.view = {
  counts : int array;
  sentries : bool array;
  tuples : int;
}

(* A predicate naming a column the side lacks is the caller's mistake:
   [run_checked_flat] turns this into [Bad_input], worded as
   [Predicate.compile] words it. *)
exception Unknown_column of string

let column (side : Flat.side) name =
  match Schema.index_of side.Flat.schema name with
  | i -> side.Flat.cols.(i)
  | exception Not_found -> raise (Unknown_column name)

(* ---------------- the mask evaluator ---------------- *)

(* A predicate is evaluated a column at a time into a mask: one byte per
   position of the side's materialized columns, 1 when the tuple there
   passes. [And], [Or] and [Not] combine masks; the right operand of a
   connective at nesting depth [d] fills the buffer of depth [d + 1], so
   a predicate [d] deep needs [d + 1] buffers. They belong to the calling
   domain and are reused across requests. Semantics mirror
   [Predicate.compile] row by row: two-valued logic, comparisons with
   Null false, LIKE only on strings. Int columns compare exactly against
   Int constants; every mixed-type case goes through the same
   [Value.compare] ladder as the row path. *)

type masks = { mutable depths : Bytes.t array }

let masks = Repro_util.Scratch.make (fun () -> { depths = [||] })

let mask_at m depth len =
  if depth >= Array.length m.depths then
    m.depths <- Repro_util.Scratch.grow m.depths (depth + 1) Bytes.empty;
  let b = m.depths.(depth) in
  if Bytes.length b >= len then b
  else begin
    let b = Bytes.create (max len (2 * Bytes.length b)) in
    m.depths.(depth) <- b;
    b
  end

let set mask j pass = Bytes.unsafe_set mask j (Char.unsafe_chr pass)
let get mask j = Char.code (Bytes.unsafe_get mask j)

(* The comparison outcomes [op] accepts, as bits indexed by the sign of a
   [compare] result plus one. *)
let accepted = function
  | Predicate.Eq -> 0b010
  | Predicate.Ne -> 0b101
  | Predicate.Lt -> 0b001
  | Predicate.Le -> 0b011
  | Predicate.Gt -> 0b100
  | Predicate.Ge -> 0b110

let accepts bits c = (bits lsr (Int.compare c 0 + 1)) land 1

(* [x op k] on ints as membership of [lo, hi], inverted when [flip] is
   1. Membership is one unsigned comparison: [x - lo <= hi - lo] with
   the sign bit flipped on both sides. *)
let int_range op k =
  match op with
  | Predicate.Eq -> (k, k, 0)
  | Predicate.Ne -> (k, k, 1)
  | Predicate.Lt when k = min_int -> (min_int, max_int, 1)
  | Predicate.Lt -> (min_int, k - 1, 0)
  | Predicate.Le -> (min_int, k, 0)
  | Predicate.Gt when k = max_int -> (min_int, max_int, 1)
  | Predicate.Gt -> (k + 1, max_int, 0)
  | Predicate.Ge -> (k, max_int, 0)

let floats_into mask len a bits f =
  for j = 0 to len - 1 do
    set mask j (accepts bits (Float.compare (Bigarray.Array1.unsafe_get a j) f))
  done

let compare_into mask len col op constant =
  let bits = accepted op in
  let constant_pass rank_of =
    Bytes.fill mask 0 len
      (Char.unsafe_chr (accepts bits (Value.compare rank_of constant)))
  in
  match (col, constant) with
  | Flat.Ints a, Value.Int k ->
      let lo, hi, flip = int_range op k in
      let width = (hi - lo) lxor min_int in
      for j = 0 to len - 1 do
        let x = Bigarray.Array1.unsafe_get a j in
        set mask j (Bool.to_int ((x - lo) lxor min_int <= width) lxor flip)
      done
  | Flat.Ints a, Value.Float f ->
      for j = 0 to len - 1 do
        let x = float_of_int (Bigarray.Array1.unsafe_get a j) in
        set mask j (accepts bits (Float.compare x f))
      done
  | Flat.Floats a, Value.Float f -> floats_into mask len a bits f
  | Flat.Floats a, Value.Int k -> floats_into mask len a bits (float_of_int k)
  (* constructor-rank comparison: the same outcome for every Int (Float) *)
  | Flat.Ints _, (Value.Null | Value.Str _) -> constant_pass (Value.Int 0)
  | Flat.Floats _, (Value.Null | Value.Str _) -> constant_pass (Value.Float 0.0)
  | Flat.Boxed a, _ ->
      for j = 0 to len - 1 do
        set mask j
          (match Array.unsafe_get a j with
          | Value.Null -> 0
          | v -> accepts bits (Value.compare v constant))
      done

(* LIKE holds only of strings. *)
let like_into mask len col like =
  match col with
  | Flat.Ints _ | Flat.Floats _ -> Bytes.fill mask 0 len '\000'
  | Flat.Boxed a ->
      for j = 0 to len - 1 do
        set mask j
          (match (Array.unsafe_get a j, like) with
          | Value.Str s, Predicate.Like_prefix (_, prefix) ->
              Bool.to_int (Predicate.string_has_prefix ~prefix s)
          | Value.Str s, Predicate.Like_contains (_, needle) ->
              Bool.to_int (Predicate.string_contains ~needle s)
          | _ -> 0)
      done

let filled m depth len pass =
  let mask = mask_at m depth len in
  Bytes.fill mask 0 len pass;
  mask

let rec eval side m depth len p =
  match p with
  | Predicate.And (a, b) ->
      let mask, other = operands side m depth len a b in
      for j = 0 to len - 1 do
        set mask j (get mask j land get other j)
      done;
      mask
  | Predicate.Or (a, b) ->
      let mask, other = operands side m depth len a b in
      for j = 0 to len - 1 do
        set mask j (get mask j lor get other j)
      done;
      mask
  | Predicate.Not a ->
      let mask = eval side m depth len a in
      for j = 0 to len - 1 do
        set mask j (get mask j lxor 1)
      done;
      mask
  | Predicate.True -> filled m depth len '\001'
  | Predicate.False -> filled m depth len '\000'
  | Predicate.Compare (op, name, constant) ->
      let mask = mask_at m depth len in
      compare_into mask len (column side name) op constant;
      mask
  | Predicate.Like_prefix (name, _) | Predicate.Like_contains (name, _) ->
      let mask = mask_at m depth len in
      like_into mask len (column side name) p;
      mask

and operands side m depth len a b =
  let mask = eval side m depth len a in
  (mask, eval side m (depth + 1) len b)

(* An unfiltered side is the view the flat keeps; any other predicate
   fills a mask over the side's positions and reads the counts off it. *)
let filter_side (side : Flat.side) pred =
  match pred with
  | Predicate.True -> side.Flat.unfiltered
  | p ->
      Repro_util.Scratch.with_ masks @@ fun m ->
      let mask = eval side m 0 side.Flat.unfiltered.tuples p in
      let n = Array.length side.Flat.values in
      let row_off = side.Flat.row_off and sentry_pos = side.Flat.sentry_pos in
      let counts = Array.make n 0 and sentries = Array.make n false in
      let total = ref 0 in
      for i = 0 to n - 1 do
        let c = ref 0 in
        for j = row_off.(i) to row_off.(i + 1) - 1 do
          c := !c + get mask j
        done;
        counts.(i) <- !c;
        let sp = sentry_pos.(i) in
        let s = sp >= 0 && get mask sp = 1 in
        sentries.(i) <- s;
        total := !total + !c + Bool.to_int s
      done;
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

(* The learner on the filtered first side: x_v of Eq. 7 per first-side
   position, and the virtual sample size. An empty DL input (a filtered
   first side that holds only sentries, or rates clamped to q_v = 0) is
   valid: the learner is not called, every x_v is 0, and the sentry
   indicators carry the estimate. An invalid [dl_config] is refused
   either way. *)
let learn_side ?obs ?dl_config ~virtual_ratio (a : Flat.side)
    (fa : filtered_side) =
  let n = Array.length a.Flat.values in
  (* DL input distribution from the already-filtered A side. The list is
     built by prepending in scan order — the resulting array is in reverse
     scan order, as it always was (the learner's output depends on element
     order through float summation). *)
  let virtual_counts = ref [] in
  for i = 0 to n - 1 do
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
      |> Result.map (fun () ->
             { Flat.x_v = Array.make n 0.0; virtual_sample_size = 0.0 })
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
             {
               Flat.x_v = Array.init n x_v;
               virtual_sample_size = Discrete_learning.sample_size t;
             })

(* Eq. 7 with the learned x_v. *)
let dl_estimate ?obs ?dl_config ~virtual_sample (flat : Flat.t)
    ~sentry_spec ~selectivity (fa : filtered_side) (fb : filtered_side) =
  let { Flat.resolved; n_prime; _ } = flat in
  let base_q = resolved.Budget.base_q in
  (* Ablation hook: without the Eq. 6 virtual sample, raw counts feed the
     learner directly (count ratio forced to 1). *)
  let virtual_ratio q_v = if virtual_sample then base_q /. q_v else 1.0 in
  let a = flat.Flat.a and b = flat.Flat.b and b_to_a = flat.Flat.b_to_a in
  (* With the default learner on the virtual sample, the DL input and
     every x_v are functions of the flat and the first side's filtered
     counts: the flat's memo learns each distinct counts array once. *)
  let learned =
    if virtual_sample && Option.is_none dl_config then
      Flat.find_or_learn flat fa.counts (fun () ->
          learn_side ?obs ~virtual_ratio a fa)
    else learn_side ?obs ?dl_config ~virtual_ratio a fa
  in
  match learned with
  | Error fault -> Error fault
  | Ok { Flat.x_v; virtual_sample_size } ->
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
            (x_v.(j) *. n_filtered)
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
