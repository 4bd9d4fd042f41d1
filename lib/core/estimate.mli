(** Online estimation: from a synopsis and the query's selection predicates
    to an estimated join size.

    Implements both estimation methods of the framework:

    - {b Simple scaling} (Eqs. 1–3, extended to filtered samples):
      [sum over v of (1/p_v)(S''_A(v)/q_v + I''_A(v))(S''_B(v)/u_v + I''_B(v))],
      without the sentry indicators for sentry-less specs.
    - {b Discrete learning} (Eqs. 4, 5, 7): learn the filtered join-value
      distribution of the first side from the (virtual) sample, then
      [sum over v of (1/p_v)(x_v N'' + I''_A(v))(S''_B(v)/u_v + I''_B(v))]
      with [N'' = N' |S''_A| / |S_A|].

    Predicates here are in the {e sampler's} orientation: [pred_a] applies
    to the first-sampled table. {!Estimator} and {!Store} handle user
    orientation.

    {!run_checked_flat} is the one function that computes an estimate;
    [batch], the daemon, the bake-off, the experiment grid and the drift
    sentinels all call it, so they answer the same number for the same
    synopsis and query. It operates on a {!Synopsis_flat.t}: single linear
    passes over columnar arrays, the predicate evaluated exactly once per
    sampled row per query, the two sides joined by precomputed index
    position. Build the flat view once per draw or load and reuse it per
    query. *)

open Repro_relation

type breakdown = {
  estimate : float;
  filtered_a_tuples : int;  (** |S''_A| including sentries *)
  filtered_b_tuples : int;
  selectivity_a : float;  (** f^{c_A} = |S''_A| / |S_A| *)
  virtual_sample_size : float;
      (** n of the DL input; 0 for scaling, and 0 when the filtered first
          side holds only sentries or only rates clamped to [q_v = 0] *)
  contributing_values : int;  (** |V''_{A,B}| with a non-zero term *)
}

val run_checked_flat :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?virtual_sample:bool ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  Synopsis_flat.t ->
  (breakdown, Fault.error) result
(** Estimated join size of [sigma_a(A) |><| sigma_b(B)]; predicates default
    to [Predicate.True]. Never raises.

    - A synopsis whose memoized {!Synopsis_flat.t.verdict} is [Some f]
      (non-finite [N'], a non-finite or non-positive [p_v], a non-finite or
      negative [q_v], a dangling semijoin value) gives [Error f]. A
      second-level rate of 0 is valid: the sampler writes it when a
      budget fits only the sentries.
    - An empty filtered sample on either side gives
      [Error (Empty_filtered_sample side)] — "no evidence", the regime the
      paper reports as infinite q-error. {!value} maps it to 0. It is
      checked right after the two filter scans, before any solve, so no
      learner runs behind an empty side (and its [dl_config] is not
      looked at).
    - A filtered first side that holds only sentries is valid input. The
      discrete learner is not called; every x_v is 0 and the sentry
      indicators of Eq. 7 carry the estimate.
    - For a discrete-learning spec, an invalid [dl_config] gives
      [Error (Bad_input _)] whether or not the learner runs; any other
      fault of {!Discrete_learning.learn_checked} is returned as is.
    - A predicate naming a column its table lacks gives
      [Error (Bad_input "Predicate: no column named \"c\"")].
    - A non-finite or negative estimate gives [Error (Numeric _)], and a
      stray exception (a structurally corrupt synopsis)
      [Error (Corrupt_synopsis _)].

    {b Learned once per distinct first side.} For a discrete-learning
    spec with no [dl_config] and [virtual_sample] on, the learner's input
    and every x_v depend only on the flat and on the first side's
    filtered per-position counts. The first call on a flat with given
    counts runs the learner, and the flat keeps its x_v per first-side
    position and its virtual sample size (or its fault) in its bounded
    memo ({!Synopsis_flat.find_or_learn}). Later calls with the same
    counts, whatever predicate led to them ([Predicate.True] included),
    read them, and still filter both sides and sum Eq. 7 per query. Every
    other call, and any input the full memo cannot keep, solves per
    request. The answers are the same bits either way; only the [dl.*]
    and [lp.*] metrics, which count solves, see the difference.

    [virtual_sample] (default [true]) applies Eq. 6's virtual-sample
    correction before discrete learning; [false] feeds raw counts to the
    learner — the ablation showing why Lemma 1 matters for different-[q_v]
    variants. Ignored by scaling specs.

    A live [obs] context wraps the run in an [estimate.run] span
    (attribute [method]), counts runs ([estimate.runs{method}]) and empty
    filtered samples ([estimate.degenerate]), and forwards to the DL/LP
    metrics of the solves it runs. *)

val value : (breakdown, Fault.error) result -> (float, Fault.error) result
(** The answer a caller reports: the estimate, or 0 for an empty filtered
    sample (no evidence answers 0); any other fault stays an [Error]. *)
