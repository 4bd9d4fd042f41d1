(** The discrete-learning estimation method (Algorithm 1, after Valiant &
    Valiant's instance-optimal learning of discrete distributions).

    Step 1 learns the *shape* of the distribution: a statistical histogram
    [h(x) = r_x] ("[r_x] domain values have probability [x]") fitted by a
    linear program that matches expected to observed sample fingerprints,
    [E F_i = sum_x poi(n x, i) r_x] (Eq. 9). Step 2 assigns a probability
    to each count class: values appearing [j] times get the
    [poi(n x, j)]-weighted median of the histogram for [j < ln^2 n], and
    their empirical probability [j/n] otherwise.

    Counts are real-valued because CSDL feeds this algorithm *virtual*
    samples with fractional per-value counts (Eq. 6).

    Adaptations relative to the literal algorithm (see DESIGN.md): the
    probability grid is linear in steps of [1/n^2] only up to a fixed number
    of points and geometrically spaced (ratio 1.05) beyond, bounding the LP
    size for large samples.

    The kernel keeps a learn off the major heap: the grid lives in a
    per-domain buffer reused across learns, the Poisson design rows are
    written straight into {!Repro_lp.L1_fit.fit_with}'s reused tableau,
    and a count class's reweighted median is one
    {!Repro_util.Weighted.scaled_median} pass over the histogram, its
    Poisson factors computed from [n x] and [log (n x)] tables built once
    per learn. Every float it
    produces is bit-identical to the straightforward formulation (the same
    grid sequence, [exp (k log lambda - lambda - log k!)] design, row and
    pivot order, and ascending-order median sums); the test suite holds it
    to a verbatim reference copy of that formulation. *)

type config = {
  d : float;  (** the paper's D; experiments use 0.08 *)
  e : float;  (** the paper's E; experiments use 0.05; needs D/2 < E < D *)
  linear_grid_points : int;  (** grid points at spacing 1/n^2 before the
                                 geometric regime (default 400) *)
  geometric_ratio : float;
      (** spacing ratio of the geometric regime; must be finite and [> 1] *)
}

val default_config : config
(** [{ d = 0.08; e = 0.05; linear_grid_points = 400; geometric_ratio = 1.05 }] *)

type t

val learn : ?obs:Repro_obs.Obs.ctx -> ?config:config -> float array -> t
(** [learn counts] runs Algorithm 1 on a sample described by its
    per-distinct-value multiplicities (zeros, negatives and non-finite
    entries ignored). The sample size is [sum counts]. An all-zero input
    yields a degenerate result whose probabilities are all 0, and an LP
    failure falls back to the empirical shape — use {!learn_checked} when
    those conditions should be reported instead of absorbed. Raises
    [Invalid_argument] on an invalid config (D/E out of order, or a
    [geometric_ratio] that is not a finite number [> 1]). A live [obs]
    context wraps the run in a [dl.learn] span, records the virtual sample
    size ([dl.virtual_sample.size]), counts absorbed LP failures
    ([dl.lp.failures]) and forwards to the LP-layer metrics. *)

val check_config : config -> (unit, Fault.error) result
(** The config check of {!learn_checked} alone: [Error (Bad_input _)] for
    a config it would refuse, [Ok ()] otherwise. Runs no learner. *)

val learn_checked :
  ?obs:Repro_obs.Obs.ctx -> ?config:config -> float array -> (t, Fault.error) result
(** Like {!learn} but every silent-degradation path becomes a typed error:
    an invalid config or an empty/all-zero input is [Error (Bad_input _)]
    instead of [Invalid_argument]/a degenerate result, a NaN or infinite
    count is [Error (Numeric _)] instead of being dropped, and an LP
    failure is [Error (Lp_infeasible | Lp_unbounded | Lp_iteration_cap |
    Numeric _)] instead of the empirical fallback. Never raises. *)

val sample_size : t -> float

val probability_of_count : t -> float -> float
(** [probability_of_count t j] — the estimated probability of a domain
    value that appeared [j] times ([j] is rounded to the nearest integer
    count class; [j <= 0] gives 0). Memoised per count class. *)

val histogram : t -> Repro_util.Weighted.t
(** The learned statistical histogram (LP bins plus empirical heavy
    entries) — exposed for tests and diagnostics. *)

val estimated_distinct : t -> float
(** Total histogram weight: the learned number of distinct domain values
    (including unseen ones — the LP can place mass below one occurrence). *)
