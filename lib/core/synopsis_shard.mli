(** Sharded, mergeable synopses with incremental maintenance.

    A synopsis held as K deterministic partitions of the join-value space.
    Shards are contiguous ranges of the canonical 64-bit value-hash space
    ({!Shard_key}), and every per-value draw runs on its own keyed PRNG
    sub-stream derived from the build's 64-bit base ({!Sample.stream_a}).
    Consequences, which the shard-determinism CI gate pins byte-for-byte:

    - {!merge} of the K shard samples is bit-identical to the monolithic
      [Synopsis.draw] with the same base, for every shard count, so
      [Synopsis_flat.of_synopsis (merge t)] is the monolithic flat view;
    - {!apply_delta} re-runs the per-value hash test against the same
      keyed streams for exactly the values whose draw inputs changed,
      yielding estimates bit-identical to a from-scratch re-draw of the
      post-delta table. *)

open Repro_relation

type t

type side_delta = {
  inserts : Value.t array array;  (** rows appended to the table *)
  deletes : int array;  (** current row indices to remove *)
}

type delta = { a : side_delta; b : side_delta }
(** A batch of mutations, in the profile's A/B orientation. *)

val no_delta : side_delta

val build :
  ?obs:Repro_obs.Obs.ctx ->
  ?jobs:int ->
  base:int64 ->
  profile:Profile.t ->
  resolved:Budget.t ->
  shards:int ->
  unit ->
  t
(** Draw each shard's slice on its own stream, fanning the shards out over
    a {!Repro_util.Pool} of [jobs] domains (per-value streams make the
    restricted draws order- and domain-independent). [base] is
    {!Synopsis.base_of_prng} of the stream a monolithic draw would have
    used. Raises [Invalid_argument] when [shards < 1]. *)

val of_synopsis :
  base:int64 -> profile:Profile.t -> shards:int -> Synopsis.t -> t
(** Re-shard an existing (e.g. decoded) synopsis by routing its entries
    through {!Shard_key.shard_of} — how the delta CLI resumes maintenance
    on a stored synopsis. The [base] must be the one the synopsis was
    drawn with, or subsequent deltas will not reproduce it. *)

val merge : t -> Synopsis.t
(** Union the shard samples into the one synopsis the monolithic draw
    would have produced: per-value entries recombined, tuple and sentry
    counts re-tallied, [N'] recomputed as the exact integer-valued sum of
    shard partials. *)

val apply_delta : t -> delta -> int
(** Apply an insert/delete batch in place and return the number of shards
    whose sample changed. Tables are compacted (deletes removed, inserts
    appended — row indices of survivors shift accordingly), the profile is
    rebuilt and the budget re-resolved on the post-delta data, and exactly
    the values whose draw inputs changed — touched groups, re-priced
    rates, changed [S_A] membership on the semijoin side — are re-drawn on
    their keyed streams. Estimates from {!merge} afterwards are
    bit-identical to a from-scratch re-draw of the post-delta table. Note
    the degenerate honest case: data-dependent rate variants may re-price
    {e every} value under a delta, in which case all shards re-draw (still
    bit-identically). Raises [Invalid_argument] on out-of-range or
    duplicate delete indices and on inserts that do not match the schema.
    Access the post-delta tables through {!profile}. *)

val shard_count : t -> int
val profile : t -> Profile.t
val resolved : t -> Budget.t
val base : t -> int64

val shard_tuple_counts : t -> int array
(** Sampled tuples (sentries included, both sides) per shard — provenance
    for sharded-build records and the load-balance eyeball check. *)
