(** Top-level API: prepare a correlated-sampling estimator for a join
    graph, draw offline synopses, and answer online estimation queries.

    Orientation: the caller describes the join as [(A, col_a)] joined with
    [(B, col_b)] and always passes predicates in that orientation. The
    estimator may internally sample the other table first — mandatory for
    PK-FK joins, where the FK table must be sampled first and the discrete
    learning applied to it (Section IV-F) — and maps predicates
    accordingly. *)

open Repro_relation

type sample_first =
  [ `A  (** always sample the A side first *)
  | `B  (** always sample the B side first *)
  | `Fk_side
    (** sample the foreign-key side first when the join is PK-FK (exactly
        one side's join column is unique); otherwise sample A first. This
        is the paper's rule and the default. *) ]

type t

val prepare :
  ?sample_first:sample_first -> Spec.t -> theta:float -> Profile.t -> t
(** Resolve the spec's sampling rates for this join under budget
    [theta * (|A| + |B|)]. This is deterministic; all randomness is in
    {!draw}. *)

val draw : ?obs:Repro_obs.Obs.ctx -> t -> Repro_util.Prng.t -> Synopsis.t
(** One offline sampling run. A live [obs] context records sampling spans
    and counters (see {!Synopsis.draw}) without touching the PRNG. *)

val estimate :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  t ->
  Synopsis.t ->
  float
(** Online phase: estimated size of [sigma_a(A) |><| sigma_b(B)]:
    {!Estimate.value} of {!Estimate.run_checked_flat} on the synopsis'
    flat view, with the predicates mapped to the sampler's orientation.
    An empty filtered sample answers 0. Raises [Failure] on any other
    fault (an invalid [dl_config], a corrupt synopsis, a predicate on an
    unknown column); no synopsis {!draw} returns reaches that raise. *)

val estimate_once :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  t ->
  Repro_util.Prng.t ->
  float
(** Convenience: {!draw} then {!estimate} in one call. *)

type guarded = {
  value : float;  (** finite, clamped to [0, |A| * |B|] *)
  rung : string;  (** the cascade rung that produced [value] *)
  trace : Fault.trace;  (** downgrades on the way there; [] = no fault *)
  clamped : bool;  (** [value] was pulled back into range *)
}

val independence_prior : Profile.t -> unit -> float
(** The sampling-free System-R independence prior
    [|A| * |B| / max(d_A, d_B)] — the default final cascade rung. *)

val scaling_spec : Spec.t
(** The cascade's LP-free rung: sentry-backed simple scaling with constant
    rates (p = theta, q = 1). *)

val estimate_guarded :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  ?sample_first:sample_first ->
  ?draw:(t -> Repro_util.Prng.t -> Synopsis.t) ->
  ?fallback:string * (unit -> float) ->
  theta:float ->
  Profile.t ->
  Repro_util.Prng.t ->
  (guarded, Fault.error) result
(** Fault-tolerant estimation: run the degradation cascade
    CSDL(theta,diff) -> CSDL(1,diff) -> simple scaling -> [fallback]
    (default {!independence_prior}), downgrading one rung whenever
    {!Estimate.run_checked_flat} returns a typed error for the current
    one (an empty filtered sample included) or drawing it raises. A
    sentry-only filtered first side and rates clamped to [q_v = 0] are
    answers, not faults, so they do not downgrade. Each downgrade is recorded in the trace; the final
    answer is clamped to [0, |A| * |B|]. [draw] overrides synopsis drawing
    (the fault-injection harness corrupts synopses through it); [fallback]
    is [(rung_name, thunk)] — lib/robustness wires the sampling
    independence baseline here. The only [Error _] is
    [Bad_input] for a theta outside (0, 1]; anything downstream degrades
    instead of escaping, so callers always get a finite non-negative
    number plus an honest account of how it was obtained.

    A live [obs] context wraps the cascade in an [estimate.guarded] span
    and counts each downgrade ([estimate.downgrade{fault}] and
    [estimate.downgrades.total] — always equal to the trace length), the
    answering rung ([estimate.rung{rung}]) and clamping events
    ([estimate.clamped]). When [draw] is not overridden, the default draw
    inherits [obs]. *)

val swapped : t -> bool
(** Whether the sampler operates on the (B, A) orientation. *)

val spec : t -> Spec.t
val resolved : t -> Budget.t
val profile : t -> Profile.t
(** The profile in the {e sampler's} orientation. *)
