(** Typed failure taxonomy and degradation traces for the fault-tolerant
    estimation pipeline.

    The checked entry points ({!Discrete_learning.learn_checked},
    {!Estimate.run_checked_flat}, the store loaders) return
    [('a, Fault.error) result] instead of raising or silently returning
    degenerate numbers; the guarded estimator
    ({!Estimator.estimate_guarded}) turns those errors into downgrades along
    a fallback cascade, recording each step as a {!degradation}. See
    docs/robustness.md for when each error fires and how the cascade
    responds. *)

type side = A | B
(** Which sample of the synopsis an error refers to, in the sampler's
    orientation ([A] is the first-sampled side). *)

type error =
  | Lp_infeasible  (** the discrete learner's LP has no feasible point *)
  | Lp_unbounded  (** the LP objective is unbounded below *)
  | Lp_iteration_cap
      (** the simplex hit its absolute pivot budget (cycling or a
          numerically hostile tableau) *)
  | Numeric of { what : string; value : float }
      (** a quantity that must be finite and in range came out NaN,
          infinite or negative; [what] names it, [value] is the offender *)
  | Empty_filtered_sample of side
      (** the predicate filtered every sampled tuple out on [side] — the
          "no evidence" regime the paper reports as infinite q-error *)
  | Corrupt_synopsis of string
      (** the synopsis violates a structural invariant (e.g. the semijoin
          side references a value absent from the first side, or stored
          rates are non-finite) *)
  | Bad_input of string  (** caller-supplied parameters are invalid *)
  | Store_mismatch of { what : string; detail : string }
      (** a persisted synopsis store failed validation on load — bad
          magic, unsupported version, layout (schema-hash) drift, checksum
          failure, a truncated or malformed payload, or base-table
          fingerprints that do not match the resolved tables. [what] names
          the failing check (e.g. ["checksum"], ["fingerprint"]). *)
  | Timeout of { what : string; budget_s : float }
      (** an operation ran out of its deadline budget — the estimation
          server degrades or rejects instead of hanging; [what] names the
          stage (e.g. ["request"], ["synopsis load"]). *)
  | Drift of { key : string; worsened : float; limit : float }
      (** a sentinel replay found the synopsis answering its recorded
          ground-truth queries with a q-error [worsened] times its
          build-time baseline, past the configured limit — the estimates
          for [key] can no longer be trusted at the accuracy the
          synopsis was built to deliver (typically the base data
          drifted under delta maintenance) *)

val error_to_string : error -> string
(** One line of text per fault. A [Numeric] fault reads ["non-finite WHAT
    (VALUE)"] for NaN or an infinity and ["out-of-range WHAT (VALUE)"] for
    a finite value outside its domain (a negative [q_v], a [p_v] of 0),
    with VALUE in hexadecimal ([%h]), so the exact bits show. *)

val pp_error : Format.formatter -> error -> unit

val get_ok : ?context:string -> ('a, error) result -> 'a
(** The value of [Ok v]; raises [Failure] with {!error_to_string} of the
    fault (prefixed by [context ^ ": "] when given) on [Error _]. For the
    conveniences that return a bare value ({!Store.load},
    {!Store.estimate}, {!Estimator.estimate}). *)

val variant_label : error -> string
(** Stable lowercase name of the variant (payload dropped), e.g.
    ["lp_iteration_cap"] — the [fault] label of the
    [estimate.downgrade] observability counter. *)

val side_to_string : side -> string

val of_l1_error : Repro_lp.L1_fit.error -> error
(** Map the LP layer's typed failures into this taxonomy. *)

type degradation = {
  rung : string;  (** name of the cascade rung that was attempted *)
  fault : error;  (** why it was abandoned *)
}
(** One downgrade event: the named rung failed with [fault] and the
    cascade moved on to the next rung. *)

type trace = degradation list
(** Downgrades in the order they happened (first attempt first). An empty
    trace means the primary estimator answered. *)

val degradation_to_string : degradation -> string
val pp_trace : Format.formatter -> trace -> unit
val trace_to_string : trace -> string

val contains_substring : string -> string -> bool
(** [contains_substring s sub] — exposed for the fault-mapping helpers and
    tests. *)
