(** Experiment 1 (and the data feeding Experiments 3's variance view):
    the 14 JOB-derived two-table queries, every CSDL variant plus CS2L,
    both space budgets, [runs] estimations per cell — the raw material of
    Tables IV, V and VI.

    Execution is a {!Grid}: first one task per query (profile
    construction and exact join size, the read-only state all of that
    query's cells share), then one {!Cell} per (query, theta, approach).
    Each cell draws from its own {!Repro_util.Prng.create_keyed} stream,
    so the results are bit-identical at any [Config.jobs] setting. *)

type approach = { label : string; spec : Csdl.Spec.t }

val approaches : approach list
(** The paper's column order: the 10 CSDL variants of Table III, then
    CS2L (exact variance optimisation) and CS2L-hh (the original
    implementation's heavy-hitter approximation). *)

type query_result = {
  name : string;
  jvd : float;
  truth : int;
  theta : float;
  cells : Cell.t list;  (** one per approach, in {!approaches} order *)
}

val run :
  ?clock:Repro_util.Clock.t ->
  Config.t ->
  Repro_datagen.Imdb.t ->
  query_result list
(** All (query, theta) combinations, in workload order. [clock] (default
    {!Repro_util.Clock.wall}) is injectable for tests; inject a fake
    clock only with [Config.jobs = 1], fakes are not domain-safe. *)

val find_cell : context:string -> string -> Cell.t list -> Cell.t
(** [find_cell ~context label cells] is the cell labelled [label];
    fails with a message naming [label], [context] and the labels present
    instead of raising a bare [Not_found]. *)

val is_small_jvd : Config.t -> query_result -> bool

val print_table4 : Config.t -> query_result list -> unit
(** Small-jvd queries: q-error per variant (paper Table IV). *)

val print_table5 : Config.t -> query_result list -> unit
(** Large-jvd queries (paper Table V). *)

val print_table6 : Config.t -> query_result list -> unit
(** Estimation variance of CSDL(1,t), CSDL(1,diff) and CS2L on the
    small-jvd queries (paper Table VI). *)
