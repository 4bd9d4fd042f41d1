(** Weighted multisets of reals. The discrete-learning estimator represents
    the learned histogram as a weighted multiset of probability values and
    repeatedly takes Poisson-weighted medians of it (Algorithm 1, lines
    7–10); this module provides that operation without materialising the
    [r_x] copies. *)

type t
(** An immutable weighted multiset of floats. Weights are non-negative;
    zero-weight entries are dropped. *)

val of_pairs : (float * float) list -> t
(** [of_pairs [(value, weight); ...]]. Negative weights raise
    [Invalid_argument]. *)

val of_arrays : values:float array -> weights:float array -> t
(** Same from parallel arrays; lengths must agree. *)

val is_empty : t -> bool

val total_weight : t -> float

val size : t -> int
(** Number of distinct entries retained (positive weight). *)

val reweight : (float -> float -> float) -> t -> t
(** [reweight f t] maps each entry's weight [w] at value [x] to [f x w].
    Entries whose new weight is zero (or below) are dropped. *)

val median : t -> float
(** Weighted median: the smallest value [m] such that the weight of entries
    [<= m] is at least half the total. Raises [Invalid_argument] on an empty
    multiset. *)

val scaled_median : factors:float array -> empty:float -> t -> float
(** [scaled_median ~factors ~empty t] is [median (reweight f t)], where [f]
    multiplies the weight of the [i]-th entry (in increasing value order)
    by [factors.(i)], or [empty] when no entry keeps a positive weight. It
    makes one pass without building the reweighted multiset, and when
    [t]'s values are distinct it matches that formula bit for bit: the
    same entries are kept and the weights are summed in the same ascending
    order. [factors] must hold at least [size t] cells; it is overwritten
    with the scaled weights. *)

val fold : (float -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f value weight] over entries in increasing value
    order. *)

val mean : t -> float
(** Weighted mean; raises [Invalid_argument] on empty. *)
