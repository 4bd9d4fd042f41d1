(** L1 residual fitting, the optimisation at the core of the
    discrete-learning algorithm (Algorithm 1, line 4):

    minimise [sum_i |target_i - (design r)_i|] over [r >= 0] subject to the
    linear equality [mass_coefficients . r = mass].

    The absolute values are linearised with one auxiliary variable per
    residual, and the rows (mass, then upper [i] and lower [i] per
    observation) are written straight into {!Simplex.solve_with}'s reused
    tableau. *)

type spec = {
  design : float array array;
      (** [m x n]: [design.(i).(j)] is the model's contribution of unit
          weight at grid point [j] to observation [i] (Poisson probabilities
          in the DL use). Rows must share a width. *)
  target : float array;  (** length [m]: the observed values. *)
  mass_coefficients : float array;
      (** length [n]: coefficients of the equality constraint. *)
  mass : float;  (** right-hand side of the equality constraint. *)
}

type outcome = {
  weights : float array;  (** length [n]: the fitted non-negative [r]. *)
  residual : float;  (** the attained L1 objective. *)
}

type error =
  | Infeasible
      (** The mass constraint cannot be met — for the DL grid this means
          the caller picked an empty grid. *)
  | Unbounded
  | Aborted of string
      (** The simplex aborted defensively (non-finite tableau entries or
          iteration cap); see {!Simplex.Failed}. *)

val error_to_string : error -> string

val fit : ?obs:Repro_obs.Obs.ctx -> spec -> (outcome, error) Stdlib.result
(** [fit spec] returns the optimum or the typed reason it could not be
    computed. Never raises on numerically bad inputs: NaN/Inf design or
    target entries surface as [Error (Aborted _)]. A live [obs] context
    records the attained residual ([lp.l1.residual] histogram) on top of
    the underlying {!Simplex.solve} metrics. *)

val fit_with :
  ?obs:Repro_obs.Obs.ctx ->
  columns:int ->
  design:(int -> float array -> int -> unit) ->
  target:float array ->
  mass_coefficients:float array ->
  mass:float ->
  ((outcome, error) Stdlib.result -> 'a) ->
  'a
(** The allocation-free form of {!fit}, for a hot path that keeps its
    design rows out of the heap: [columns] is [n],
    [mass_coefficients.(0)..(n-1)] are the mass coefficients (the array may
    be longer) and [design i tab off] writes design row [i] into
    [tab.(off)..tab.(off+n-1)]. The result, identical to {!fit}'s on the
    same rows, goes to the continuation; there an [outcome]'s [weights] is
    the solver's reused buffer, of which only the first [n] cells are the
    weights, valid only until the continuation returns. Raises
    [Invalid_argument] when [mass_coefficients] is shorter than [n]. *)
