(** Dense two-phase primal simplex.

    Solves [minimize c.x subject to A x (<=|=|>=) b, x >= 0]. Sized for the
    discrete-learning LP of this repository: a handful of rows and up to a
    few thousand columns, for which a dense tableau is both simple and fast.
    Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
    when progress stalls, which guarantees termination on degenerate
    vertices; an absolute iteration cap and in-tableau NaN/Inf detection
    additionally bound the solver on numerically poisoned inputs, reporting
    {!Failed} instead of spinning or returning garbage.

    The tableau is one flat row-major array in a per-domain buffer that is
    reused across solves and grows to the largest solve seen, so a solve
    allocates no block above OCaml's 256-word minor-heap limit (only
    {!solve}'s returned [solution] copy). {!solve} loads a {!problem} into
    that tableau; {!solve_with} lets a caller such as {!L1_fit} write its
    rows straight into it. Both run the same pivot rules and the same
    per-cell arithmetic in the same order, so their results are
    bit-identical for the same rows. *)

type relation = Le | Ge | Eq

type constraint_row = {
  coefficients : float array;  (** one per structural variable *)
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;  (** minimised; one per structural variable *)
  constraints : constraint_row list;
}

type result =
  | Optimal of { objective_value : float; solution : float array }
      (** [solution] holds the structural variables only. *)
  | Infeasible
  | Unbounded
  | Failed of string
      (** The solve was aborted defensively: non-finite inputs, a tableau
          entry diverging to NaN/Inf mid-pivot, or the absolute iteration
          cap running out. The payload names the trigger. Callers should
          treat this like a solver crash they can recover from. *)

val solve :
  ?obs:Repro_obs.Obs.ctx ->
  ?epsilon:float ->
  ?max_iterations:int ->
  problem ->
  result
(** [solve p] runs two-phase simplex. A live [obs] context records the
    pivot count ([lp.simplex.iterations] histogram), the outcome tally
    ([lp.simplex.solves{outcome}]) and fuel exhaustion
    ([lp.simplex.fuel_exhausted]); the result itself is unaffected.
    [epsilon] (default [1e-9]) is the
    feasibility/optimality tolerance. [max_iterations] is the absolute
    pivot budget shared by both phases (default [1000 + 256 * (rows +
    columns)], far above what a well-posed problem of this shape needs);
    exhausting it yields [Failed], never an infinite loop. Raises
    [Invalid_argument] when constraint rows disagree with the objective on
    the variable count — a caller bug, unlike the runtime conditions
    reported via [Failed]. *)

val solve_with :
  ?obs:Repro_obs.Obs.ctx ->
  ?epsilon:float ->
  ?max_iterations:int ->
  n:int ->
  relations:relation array ->
  rhs:float array ->
  objective:(float array -> unit) ->
  row:(int -> float array -> int -> unit) ->
  (result -> 'a) ->
  'a
(** [solve_with ~n ~relations ~rhs ~objective ~row k] is the kernel behind
    {!solve} for [Array.length relations] constraint rows over [n]
    structural variables, without building a {!problem}. [objective costs]
    writes the [n] costs into [costs.(0)..costs.(n-1)], and [row i tab off]
    writes the [n] coefficients of row [i] into [tab.(off)..tab.(off+n-1)];
    every cell starts at zero. Rows are written in order [0..m-1], all
    before any is sign-normalised, so a writer may copy an earlier row of
    [tab]. The result, with the same checks and metrics as {!solve}, goes to
    [k]; an {!Optimal} [solution] there is this domain's reused buffer, of
    which only the first [n] cells belong to this solve, and it is valid
    only until [k] returns. Raises [Invalid_argument] when [rhs] and
    [relations] differ in length. *)
