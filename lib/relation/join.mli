(** Exact join computation — the ground truth the estimators are judged
    against. *)

type side = { table : Table.t; column : string; predicate : Predicate.t }
(** One side of an equijoin: which table, its join column, and the query's
    selection predicate on it ([Predicate.True] when unfiltered). *)

val unfiltered : Table.t -> string -> side
(** A side with [Predicate.True]. *)

val filtered : Table.t -> string -> Predicate.t -> side

val pair_count : side -> side -> int
(** Exact size of [sigma_cA(A) |><| sigma_cB(B)] by frequency-map product:
    sum over shared values v of a_v * b_v. Nulls never join. *)

val star_count : fact:Table.t -> fact_predicate:Predicate.t ->
  dimensions:(string * side) list -> int
(** Exact size of a star join: for each fact row passing [fact_predicate],
    multiply the match counts of each [(fk_column, dimension)] pair. *)

val jvd : Table.t -> string -> Table.t -> string -> float
(** Join value density [min(|V_A|/|A|, |V_B|/|B|)] (Section III). 0 when
    either table is empty. *)
