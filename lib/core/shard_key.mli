(** Deterministic value-to-shard routing and the canonical value order.

    Correlated sampling is hash-driven: with per-value PRNG sub-streams
    (see {!Sample}), whether and how a join value is sampled depends only
    on the keyed hash of the value — not on which partition it sits in or
    which other values exist. This module fixes the two remaining degrees
    of freedom: {e where} a value lives (its shard) and {e when} it is
    visited (the canonical scan order used by every float accumulation),
    so K-shard merges reproduce the monolithic draw bit for bit.

    Shards are contiguous ranges of the unsigned 64-bit hash space rather
    than residue classes: the canonical order sorts by hash, so the
    global layout is the concatenation of the per-shard layouts for
    {e every} shard count simultaneously — an estimate scan cannot tell
    1 shard from 8. *)

val hash : Repro_relation.Value.t -> int64
(** Keyed splitmix fold over {!Repro_relation.Value.encode}; stable
    across OCaml versions and word sizes (never [Hashtbl.hash]). *)

val shard_of : shards:int -> Repro_relation.Value.t -> int
(** [shard_of ~shards v] routes [v] to its shard in [0, shards).
    Range-partitioned on the top hash bits; raises [Invalid_argument]
    when [shards < 1]. A value's shard under [K] shards is the prefix of
    its position in the canonical order. *)

val compare : Repro_relation.Value.t -> Repro_relation.Value.t -> int
(** The canonical total order: unsigned {!hash}, ties broken by the
    injective byte encoding. Strictly total on distinct values (unlike
    [Value.compare], under which [Int 3] and [Float 3.] tie). It hashes
    both values on every call, so do not sort through it: {!sort_by},
    {!sorted_values} and {!sorted_bindings} hash each value once and
    give the same order. *)

val sort_by : ('a -> Repro_relation.Value.t) -> 'a array -> unit
(** [sort_by key items] sorts [items] in place so that their keys are in
    {!compare} order, hashing each key once; stable, so items with equal
    keys keep their relative order. *)

val sorted_bindings : 'a Repro_relation.Value.Tbl.t -> (Repro_relation.Value.t * 'a) list
(** The table's bindings sorted by {!compare} — the one sanctioned way
    hashtable contents reach a float accumulation or the wire. *)

val sorted_values : Repro_relation.Value.t array -> Repro_relation.Value.t array
(** Copy of the array sorted by {!compare}. *)
