type side = A | B

type error =
  | Lp_infeasible
  | Lp_unbounded
  | Lp_iteration_cap
  | Numeric of { what : string; value : float }
  | Empty_filtered_sample of side
  | Corrupt_synopsis of string
  | Bad_input of string
  | Store_mismatch of { what : string; detail : string }
  | Timeout of { what : string; budget_s : float }
  | Drift of { key : string; worsened : float; limit : float }

type degradation = { rung : string; fault : error }

type trace = degradation list

let side_to_string = function A -> "A" | B -> "B"

let error_to_string = function
  | Lp_infeasible -> "LP infeasible"
  | Lp_unbounded -> "LP unbounded"
  | Lp_iteration_cap -> "LP iteration cap exhausted"
  | Numeric { what; value } ->
      Printf.sprintf "%s %s (%h)"
        (if Float.is_finite value then "out-of-range" else "non-finite")
        what value
  | Empty_filtered_sample side ->
      Printf.sprintf "empty filtered sample on side %s" (side_to_string side)
  | Corrupt_synopsis reason -> "corrupt synopsis: " ^ reason
  | Bad_input reason -> "bad input: " ^ reason
  | Store_mismatch { what; detail } ->
      Printf.sprintf "synopsis store %s mismatch: %s" what detail
  | Timeout { what; budget_s } ->
      Printf.sprintf "%s exceeded its %.3fs deadline" what budget_s
  | Drift { key; worsened; limit } ->
      Printf.sprintf
        "accuracy drift on %s: sentinel q-error worsened %.3gx past the %.3gx \
         limit"
        key worsened limit

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let of_l1_error (e : Repro_lp.L1_fit.error) =
  match e with
  | Repro_lp.L1_fit.Infeasible -> Lp_infeasible
  | Repro_lp.L1_fit.Unbounded -> Lp_unbounded
  | Repro_lp.L1_fit.Aborted reason ->
      (* The simplex aborts defensively for two reasons: fuel exhaustion
         and non-finite tableau entries. *)
      if contains_substring reason "iteration cap" then Lp_iteration_cap
      else Numeric { what = "LP tableau (" ^ reason ^ ")"; value = Float.nan }

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

(* The conveniences that return a bare value (Store.load, Store.estimate,
   Estimator.estimate) share this one untyped raise. *)
let get_ok ?context = function
  | Ok v -> v
  | Error e ->
      let reason = error_to_string e in
      failwith
        (match context with Some c -> c ^ ": " ^ reason | None -> reason)

(* Stable machine-readable variant names, used as the [fault] label on the
   [estimate.downgrade] counter (docs/observability.md). *)
let variant_label = function
  | Lp_infeasible -> "lp_infeasible"
  | Lp_unbounded -> "lp_unbounded"
  | Lp_iteration_cap -> "lp_iteration_cap"
  | Numeric _ -> "numeric"
  | Empty_filtered_sample _ -> "empty_filtered_sample"
  | Corrupt_synopsis _ -> "corrupt_synopsis"
  | Bad_input _ -> "bad_input"
  | Store_mismatch _ -> "store_mismatch"
  | Timeout _ -> "timeout"
  | Drift _ -> "drift"

let degradation_to_string { rung; fault } =
  Printf.sprintf "%s failed: %s" rung (error_to_string fault)

let pp_trace fmt trace =
  match trace with
  | [] -> Format.pp_print_string fmt "no degradation"
  | steps ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ -> ")
        (fun fmt d -> Format.pp_print_string fmt (degradation_to_string d))
        fmt steps

let trace_to_string trace = Format.asprintf "@[<h>%a@]" pp_trace trace
