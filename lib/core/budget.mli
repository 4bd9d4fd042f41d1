(** Resolution of a {!Spec.t} into concrete per-value sampling rates under a
    space budget.

    The space budget for a join graph is [theta * (|A| + |B|)] sample tuples
    (Section II-B; we count tuples rather than bytes, see DESIGN.md). Given
    the data profile, this module derives the constant [q] (same-q variants)
    or the proportionality constant in [q_v = min(1, c * sqrt(a_v b_v))]
    (diff variants) so that the *charged* sample size meets the budget.
    Charged = the first-level side's full expected cost (its sentries
    included, which is why the paper writes "q_v is not exactly theta due
    to the sentry technique") plus the semijoin side's non-sentry tuples;
    the semijoin-side sentries ride on top of the nominal budget. This
    split accounting is the only one consistent with the paper's reported
    numbers in both budget regimes (see the module comment in budget.ml
    and EXPERIMENTS.md). When even the first-level sentries exceed the
    budget — the p = 1 variants on large-jvd data — [q] clamps to 0 and
    the synopsis degrades to a sentry floor, reproducing the paper's
    Table V collapse of those variants. [expected_size] reports the full
    cost including all sentries. Closed form when the expected size is
    linear in the unknown, monotone bisection when the [min(1, .)] cap
    binds.

    Values [v] with [a_v * b_v = 0] cannot contribute to any equijoin
    result; the diff variants assign them [p_v = 0] (they are skipped
    entirely), which keeps the discrete-learning input distribution
    consistent with the stored [N'] (see DESIGN.md substitutions).

    For CS2L ([optimize_variance]), the constant [q] is chosen by scanning
    a grid of candidate rates, solving the first-level constant for each,
    and minimising the exact closed-form variance of the unbiased estimator
    evaluated on the known frequencies. *)

type rate =
  | Const of float  (** the same probability for every value *)
  | Scaled of float  (** [min(1, c * sqrt(a_v b_v))] with this [c] *)
  | Blended of { c : float; heavy : float Repro_relation.Value.Tbl.t; light : float }
      (** the heavy-hitter approximation ([Spec.cs2l_approx]): heavy values
          carry their exact [sqrt(a_v b_v)] weight, the tail shares the
          average [light] weight *)

type t = {
  spec : Spec.t;
  theta : float;
  p_rate : rate;
  q_rate : rate;
  u_rate : rate;  (** equals [q_rate] unless the spec overrides [u]. *)
  base_q : float;
      (** the same-q rate under the identical first level and budget — the
          [q] of Eq. 6's virtual sample. For same-q variants this equals the
          resolved constant [q]. *)
  expected_size : float;  (** expected synopsis tuples under the resolution *)
  budget : float;  (** the target [theta * (|A| + |B|)] *)
}

val resolve : Spec.t -> theta:float -> Profile.t -> t
(** Requires [0 < theta <= 1]; raises [Invalid_argument] otherwise, NaN
    included. *)

val p_of : t -> Profile.t -> Repro_relation.Value.t -> float
(** The resolved first-level probability for one join value. *)

val q_of : t -> Profile.t -> Repro_relation.Value.t -> float
val u_of : t -> Profile.t -> Repro_relation.Value.t -> float

val scaling_variance : Profile.t -> p:(Repro_relation.Value.t -> float) ->
  q:float -> u:float -> float
(** Closed-form variance of the sentry-based unbiased scaling estimator
    (used to tune CS2L and exposed for tests and ablation benches):
    [sum over shared v of (1/p_v)(a_v^2 + (a_v-1)(1-q)/q)(b_v^2 + (b_v-1)(1-u)/u)
    - (a_v b_v)^2]. *)
