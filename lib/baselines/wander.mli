(** Wander join (Li, Wu, Yi & Zhao, SIGMOD 2016), the online-aggregation
    random-walk estimator the paper's technical report compares correlated
    sampling against. Unlike every other approach here it keeps {e no
    offline synopsis}: each walk picks a uniform tuple of A, follows the
    join index into B uniformly, and Horvitz–Thompson-weights the path:

    [J_walk = |A| * 1[c_A(t)] * b_{v(t)} * 1[c_B(s)]],   [s ~ U(B(v(t)))]

    whose average over walks is unbiased for the filtered join size. The
    trade-off surfaced in the baseline bench: excellent accuracy per unit
    of work, but the {e base tables and a join index must be available at
    estimation time} — precisely what a sampling synopsis avoids. *)

open Repro_relation

type t

val prepare : walks:int -> Csdl.Profile.t -> t
(** [walks >= 1]: the per-estimate walk budget. The benches use
    [theta * (|A| + |B|)] walks so the online work is comparable to the
    other estimators' synopsis sizes. *)

val estimate :
  ?pred_a:Predicate.t -> ?pred_b:Predicate.t -> t -> Repro_util.Prng.t -> float

val walks : t -> int
val name : string
