open Repro_relation

type rate =
  | Const of float
  | Scaled of float
  | Blended of { c : float; heavy : float Value.Tbl.t; light : float }

type t = {
  spec : Spec.t;
  theta : float;
  p_rate : rate;
  q_rate : rate;
  u_rate : rate;
  base_q : float;
  expected_size : float;
  budget : float;
}

(* Flat view of the eligible join values: frequencies on both sides and the
   sqrt(a_v b_v) weights, so the budget equations are tight array loops. *)
type prepared = {
  values : Value.t array;
  af : float array;
  bf : float array;  (* 0 when the value is absent from B *)
  sqrt_ab : float array;
}

let prepare ~eligible_shared_only (profile : Profile.t) =
  let collect v (acc : (Value.t * float * float) list) =
    let a = float_of_int (Profile.frequency profile.Profile.a v) in
    let b = float_of_int (Profile.frequency profile.Profile.b v) in
    (v, a, b) :: acc
  in
  let triples =
    if eligible_shared_only then
      Array.fold_left (fun acc v -> collect v acc) [] profile.Profile.shared_values
    else
      Value.Tbl.fold
        (fun v _ acc -> collect v acc)
        profile.Profile.a.Profile.frequencies []
  in
  (* Canonical order: the rate solvers below sum floats over this array
     (and bisect on those sums), so the array order must not leak any
     hashtable's insertion history — a budget re-resolved from an
     incrementally maintained profile has to reproduce the from-scratch
     constants bit for bit. *)
  let arr = Array.of_list triples in
  Shard_key.sort_by (fun (v, _, _) -> v) arr;
  {
    values = Array.map (fun (v, _, _) -> v) arr;
    af = Array.map (fun (_, a, _) -> a) arr;
    bf = Array.map (fun (_, _, b) -> b) arr;
    sqrt_ab = Array.map (fun (_, a, b) -> sqrt (a *. b)) arr;
  }

(* The heavy-hitter approximation of the original CS2L implementation:
   exact sqrt(a_v b_v) weights only for the k heaviest values, the tail
   mean for everything else. Returns the coarsened view plus the heavy
   lookup table and the tail weight for rate construction. *)
let approximate_heavy_hitters prep ~k =
  let n = Array.length prep.values in
  if n <= k then (prep, None)
  else begin
    let order = Array.init n Fun.id in
    Array.sort (fun i j -> compare prep.sqrt_ab.(j) prep.sqrt_ab.(i)) order;
    let heavy = Value.Tbl.create k in
    for rank = 0 to k - 1 do
      let i = order.(rank) in
      Value.Tbl.add heavy prep.values.(i) prep.sqrt_ab.(i)
    done;
    let tail_total = ref 0.0 in
    for rank = k to n - 1 do
      tail_total := !tail_total +. prep.sqrt_ab.(order.(rank))
    done;
    let light = !tail_total /. float_of_int (n - k) in
    let sqrt_ab =
      Array.mapi
        (fun i s -> if Value.Tbl.mem heavy prep.values.(i) then s else light)
        prep.sqrt_ab
    in
    ({ prep with sqrt_ab }, Some (heavy, light))
  end

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

(* Expected synopsis size with sentries: for each eligible value v,
   p_v * (1 + (a_v - 1) q_v)  on the sampled side, plus
   p_v * (1 + (b_v - 1) u_v)  on the semijoined side when v joins. *)
let expected_size_sentry prep ~p ~q ~u =
  let total = ref 0.0 in
  for i = 0 to Array.length prep.af - 1 do
    let pv = p i in
    if pv > 0.0 then begin
      let a = prep.af.(i) and b = prep.bf.(i) in
      let cost_a = 1.0 +. ((a -. 1.0) *. q i) in
      let cost_b = if b > 0.0 then 1.0 +. ((b -. 1.0) *. u i) else 0.0 in
      total := !total +. (pv *. (cost_a +. cost_b))
    end
  done;
  !total

(* Without sentries (CS2/CSO): the A side is p_v * a_v * q_v; a B tuple is
   kept only if its value made it into S_A, probability 1 - (1-q_v)^a_v. *)
let expected_size_no_sentry prep ~p ~q ~u =
  let total = ref 0.0 in
  for i = 0 to Array.length prep.af - 1 do
    let pv = p i in
    if pv > 0.0 then begin
      let a = prep.af.(i) and b = prep.bf.(i) in
      let qv = q i in
      let present = 1.0 -. Float.pow (1.0 -. qv) a in
      let cost_b = if b > 0.0 then present *. b *. u i else 0.0 in
      total := !total +. (pv *. ((a *. qv) +. cost_b))
    end
  done;
  !total

(* The budget-relevant sample size: the first-level side's full expected
   cost (its sentries included) plus the semijoin side's non-sentry tuples.
   The semijoin-side sentries ride on top of the nominal budget. This is
   the only accounting consistent with the paper's reported numbers on
   both budget regimes: its small-jvd results at tiny budgets need q > 0
   when the *pair* of sentries would already exceed the budget (Table IV
   Q1b1 at theta = 1e-4), while its large-jvd results for the p = 1
   variants show the sentry-floor collapse that only occurs when the
   first-level sentries are charged (Table V). See EXPERIMENTS.md. *)
let expected_charged prep ~p ~q ~u =
  let total = ref 0.0 in
  for i = 0 to Array.length prep.af - 1 do
    let pv = p i in
    if pv > 0.0 then begin
      let a = prep.af.(i) and b = prep.bf.(i) in
      let cost_a = 1.0 +. ((a -. 1.0) *. q i) in
      let cost_b = if b > 0.0 then (b -. 1.0) *. u i else 0.0 in
      total := !total +. (pv *. (cost_a +. cost_b))
    end
  done;
  !total

(* Solve the constant q (same q for all values) given fixed p: the expected
   non-sentry size is linear in q, so the solution is closed-form, clamped
   to [0,1]. *)
let solve_same_q prep ~p ~budget =
  let fixed = ref 0.0 and slope = ref 0.0 in
  for i = 0 to Array.length prep.af - 1 do
    let pv = p i in
    if pv > 0.0 then begin
      let a = prep.af.(i) and b = prep.bf.(i) in
      fixed := !fixed +. pv; (* the first-level sentry *)
      slope :=
        !slope +. (pv *. ((a -. 1.0) +. if b > 0.0 then b -. 1.0 else 0.0))
    end
  done;
  if !slope <= 0.0 then 0.0 else clamp01 ((budget -. !fixed) /. !slope)

(* Generic monotone bisection: find c in [0, hi] with size(c) = budget. *)
let bisect ~size ~hi ~budget =
  if hi <= 0.0 then 0.0
  else if size 0.0 >= budget then 0.0
  else if size hi <= budget then hi
  else begin
    let lo = ref 0.0 and hi = ref hi in
    for _ = 1 to 64 do
      let mid = 0.5 *. (!lo +. !hi) in
      if size mid < budget then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  end

(* Upper bound for a proportionality constant: the point where every
   eligible value's capped rate reaches 1. *)
let cap_constant prep =
  let smallest = ref Float.infinity in
  Array.iter
    (fun s -> if s > 0.0 && s < !smallest then smallest := s)
    prep.sqrt_ab;
  if !smallest = Float.infinity then 0.0 else 1.0 /. !smallest

let scaled_rate c prep i = Float.min 1.0 (c *. prep.sqrt_ab.(i))

let solve_diff_q prep ~p ~budget =
  let hi = cap_constant prep in
  let size c =
    expected_charged prep ~p ~q:(scaled_rate c prep) ~u:(scaled_rate c prep)
  in
  bisect ~size ~hi ~budget

let solve_diff_p prep ~q ~u ~budget =
  let hi = cap_constant prep in
  let size d = expected_charged prep ~p:(scaled_rate d prep) ~q ~u in
  bisect ~size ~hi ~budget

let solve_diff_both prep ~budget =
  let hi = cap_constant prep in
  let size c =
    let r = scaled_rate c prep in
    expected_charged prep ~p:r ~q:r ~u:r
  in
  bisect ~size ~hi ~budget

let scaling_variance (profile : Profile.t) ~p ~q ~u =
  if q <= 0.0 || u <= 0.0 then Float.infinity
  else
    Array.fold_left
      (fun acc v ->
        let a = float_of_int (Profile.frequency profile.Profile.a v) in
        let b = float_of_int (Profile.frequency profile.Profile.b v) in
        let pv = p v in
        if pv <= 0.0 then Float.infinity
        else
          let ea2 = (a *. a) +. ((a -. 1.0) *. (1.0 -. q) /. q) in
          let eb2 = (b *. b) +. ((b -. 1.0) *. (1.0 -. u) /. u) in
          acc +. ((ea2 *. eb2 /. pv) -. (a *. a *. b *. b)))
      0.0 profile.Profile.shared_values

let nominal theta = function
  | Spec.L_one -> 1.0
  | Spec.L_theta -> theta
  | Spec.L_sqrt_theta -> sqrt theta
  | Spec.L_diff -> invalid_arg "Budget.nominal: L_diff has no constant value"

let rate_fn rate prep =
  match rate with
  | Const c -> fun (_ : int) -> c
  | Scaled c -> scaled_rate c prep
  | Blended { c; heavy; light } ->
      fun i ->
        let weight =
          match Value.Tbl.find_opt heavy prep.values.(i) with
          | Some s -> s
          | None -> light
        in
        Float.min 1.0 (c *. weight)

let resolve (spec : Spec.t) ~theta (profile : Profile.t) =
  (* written so that NaN fails it too *)
  if not (theta > 0.0 && theta <= 1.0) then
    invalid_arg "Budget.resolve: theta must be in (0, 1]";
  let budget = theta *. float_of_int profile.Profile.total_rows in
  let diff_involved =
    spec.Spec.p_choice = Spec.L_diff || spec.Spec.q_choice = Spec.L_diff
  in
  let prep = prepare ~eligible_shared_only:diff_involved profile in
  let p_rate, q_rate =
    if not spec.Spec.sentry then
      (* CS2 / CSO: rates are fixed by definition, no budget solving. *)
      (Const (nominal theta spec.Spec.p_choice), Const (nominal theta spec.Spec.q_choice))
    else
      match (spec.Spec.p_choice, spec.Spec.q_choice) with
      | Spec.L_diff, Spec.L_diff ->
          let c = solve_diff_both prep ~budget in
          (Scaled c, Scaled c)
      | Spec.L_diff, q_choice ->
          let q = nominal theta q_choice in
          if spec.Spec.optimize_variance then begin
            let prep, blend =
              match spec.Spec.heavy_hitter_k with
              | None -> (prep, None)
              | Some k -> approximate_heavy_hitters prep ~k
            in
            (* CS2L: scan candidate q rates, solve the first-level constant
               for each, keep the variance-minimising pair. *)
            let candidates =
              [ theta /. 4.0; theta /. 2.0; theta; 2.0 *. theta; 4.0 *. theta;
                16.0 *. theta; sqrt theta; 2.0 *. sqrt theta; 0.25; 0.5; 1.0 ]
              |> List.filter (fun q -> q > 0.0 && q <= 1.0)
              |> List.sort_uniq compare
            in
            let best = ref None in
            List.iter
              (fun q ->
                let d = solve_diff_p prep ~q:(fun _ -> q) ~u:(fun _ -> q) ~budget in
                if d > 0.0 then begin
                  let p v =
                    let weight =
                      match blend with
                      | Some (heavy, light) -> (
                          match Value.Tbl.find_opt heavy v with
                          | Some s -> s
                          | None -> light)
                      | None ->
                          let a =
                            float_of_int (Profile.frequency profile.Profile.a v)
                          in
                          let b =
                            float_of_int (Profile.frequency profile.Profile.b v)
                          in
                          sqrt (a *. b)
                    in
                    Float.min 1.0 (d *. weight)
                  in
                  let var = scaling_variance profile ~p ~q ~u:q in
                  match !best with
                  | Some (_, _, best_var) when best_var <= var -> ()
                  | _ -> best := Some (d, q, var)
                end)
              candidates;
            match (!best, blend) with
            | Some (d, q, _), None -> (Scaled d, Const q)
            | Some (d, q, _), Some (heavy, light) ->
                (Blended { c = d; heavy; light }, Const q)
            | None, Some (heavy, light) ->
                (Blended { c = 0.0; heavy; light }, Const q)
            | None, None -> (Scaled 0.0, Const q)
          end
          else
            let d = solve_diff_p prep ~q:(fun _ -> q) ~u:(fun _ -> q) ~budget in
            (Scaled d, Const q)
      | p_choice, Spec.L_diff ->
          let p = nominal theta p_choice in
          let c = solve_diff_q prep ~p:(fun _ -> p) ~budget in
          (Const p, Scaled c)
      | p_choice, Spec.L_one ->
          (* Table III pins q_v = 1 for these variants. *)
          (Const (nominal theta p_choice), Const 1.0)
      | p_choice, q_choice ->
          let p = nominal theta p_choice in
          let q = solve_same_q prep ~p:(fun _ -> p) ~budget in
          ignore (nominal theta q_choice : float);
          (Const p, Const q)
  in
  let u_rate =
    match spec.Spec.u_choice with
    | None -> q_rate
    | Some choice -> Const (nominal theta choice)
  in
  let base_q =
    match q_rate with
    | Const q -> q
    | Scaled _ | Blended _ -> solve_same_q prep ~p:(rate_fn p_rate prep) ~budget
  in
  let expected_size =
    let p = rate_fn p_rate prep
    and q = rate_fn q_rate prep
    and u = rate_fn u_rate prep in
    if spec.Spec.sentry then expected_size_sentry prep ~p ~q ~u
    else expected_size_no_sentry prep ~p ~q ~u
  in
  { spec; theta; p_rate; q_rate; u_rate; base_q; expected_size; budget }

let value_rate rate (profile : Profile.t) v =
  match rate with
  | Const c -> c
  | Scaled c ->
      let a = float_of_int (Profile.frequency profile.Profile.a v) in
      let b = float_of_int (Profile.frequency profile.Profile.b v) in
      Float.min 1.0 (c *. sqrt (a *. b))
  | Blended { c; heavy; light } ->
      let weight =
        match Value.Tbl.find_opt heavy v with Some s -> s | None -> light
      in
      Float.min 1.0 (c *. weight)

let p_of t profile v =
  (* Diff-involved variants skip values that cannot join (see mli). *)
  let skip =
    (match (t.p_rate, t.q_rate) with
    | (Scaled _ | Blended _), _ | _, (Scaled _ | Blended _) ->
        Profile.frequency profile.Profile.a v = 0
        || Profile.frequency profile.Profile.b v = 0
    | Const _, Const _ -> false)
  in
  if skip then 0.0 else value_rate t.p_rate profile v

let q_of t profile v = value_rate t.q_rate profile v
let u_of t profile v = value_rate t.u_rate profile v
