(** Chain join estimation (Section V), for chains of any length k >= 2:

    [T_1 (pk = fk) |><| T_2 (pk = fk) |><| ... |><| T_k]

    where every join is PK-FK with the FK table on the right. The paper's
    3-table chain [A |><| B |><| C] of Eq. 8 and Table IX is k = 3 (the
    section calls the extension to more tables "straightforward"). The
    rightmost table [T_k] is sampled two-level with sentries, and every
    other table contributes at most one witness tuple per sampled path.
    For each sampled join value [v] of [T_k], the [(x_v N'' + I''_k(v))]
    factor — [x_v] from discrete learning over the filtered sample of
    [T_k], or [S''_k(v)/q_v] in place of [x_v N''] for scaling-method
    specs (the CS2L baseline) — is multiplied by the number of complete
    witness paths [T_{k-1} -> ... -> T_1] passing their predicates, and
    scaled by [1/p_v]. *)

open Repro_relation

type link_table = {
  table : Table.t;
  pk : string;  (** key joined from the right neighbour's [fk] *)
  fk : string option;  (** FK to the left neighbour; [None] for T_1 *)
}

type tables = {
  links : link_table list;  (** T_1 ... T_{k-1}, left to right *)
  last : Table.t;  (** T_k, the sampled FK table *)
  last_fk : string;  (** T_k's FK referencing the last link's [pk] *)
}

val validate : tables -> unit
(** Raises [Invalid_argument] when the shape is wrong: no link tables, a
    non-head link missing its [fk], or named columns absent. *)

type t
type synopsis

val length : tables -> int
(** Number of tables in the chain (k >= 2). *)

val jvd : tables -> float
(** Join value density of the rightmost join, the dispatch input. *)

val prepare : Spec.t -> theta:float -> tables -> t
(** Resolve sampling rates for [T_k] under budget [theta] times the rows
    of every table in the chain. *)

val prepare_opt : ?threshold:float -> theta:float -> tables -> t
(** CSDL-Opt for chains: dispatch the variant on {!jvd}. *)

val draw : t -> Repro_util.Prng.t -> synopsis

val estimate :
  ?dl_config:Discrete_learning.config ->
  ?predicates:Predicate.t list ->
  t ->
  synopsis ->
  float
(** [predicates] lines up with [T_1 ... T_k]; missing entries default to
    [True]. *)

val true_size : ?predicates:Predicate.t list -> tables -> int
(** Exact chain join size (ground truth). *)

val synopsis_tuples : synopsis -> int
(** Stored tuples: the sampled tuples of [T_k], sentries included, plus
    one per row on each complete witness path. *)

val spec : t -> Spec.t
