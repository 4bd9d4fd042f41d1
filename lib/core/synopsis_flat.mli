(** Columnar flat-array view of a decoded synopsis — the online hot path.

    The hashtable-of-boxed-entries layout of {!Sample} is what the offline
    phase naturally produces, but walking it per query is pointer chasing.
    This module freezes a synopsis into immutable flat arrays once, at
    draw/decode/load time, so the per-query loops in {!Estimate} are
    single linear passes over contiguous memory:

    - per side, parallel arrays of values, rates and sentry rows indexed
      by {e position}, with per-value offset ranges into one contiguous
      row-id array (a [Bigarray], so the GC never scans it and worker
      domains share it read-only);
    - a precomputed B→A position map, so the estimate joins the two sides
      by index instead of a [Value.Tbl.find_opt] per value per query;
    - the memoized validation verdict of the synopsis, so checked
      estimation validates once per load instead of once per query;
    - one bounded memo ({!t.dl_memo}) of the discrete learner's output
      per distinct filtered first side, filled by the estimates that need
      it rather than at flatten time, so the solve runs once per distinct
      first side instead of once per query. It is the only field that
      changes after construction.

    A flat view holds only what an estimate reads: the sampled tuples
    (materialized), each side's schema and the synopsis' scalars. It keeps
    no reference to the base tables or to the {!Sample} hashtables it was
    built from, so once a loader drops those, a cached flat costs the
    synopsis and nothing more.

    {b Scan order is load-bearing.} The positional order of [values] is
    the canonical shard-hash order ({!Shard_key.compare}) — estimates
    accumulate floats in scan order, and the byte-compare harnesses pin
    `%.17g` outputs, so the layout must be identical no matter how the
    sample was produced: monolithic draw, K-shard merge, or delta
    maintenance. *)

open Repro_relation

type rows = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** One materialized column of the {e sampled} tuples, positionally
    aligned with the side's row positions (non-sentry rows first, then the
    sentry tuples — see {!side.sentry_pos}). Columns whose sampled values
    are homogeneously [Int] (resp. [Float]) are unboxed into a [Bigarray]
    — no GC tracking, no pointer dereference per row; anything mixed,
    stringly or nullable stays a boxed value array. *)
type column =
  | Ints of rows
  | Floats of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  | Boxed of Value.t array

type side = {
  schema : Schema.t;
      (** the base table's schema: predicates name columns through it *)
  column : string;
  values : Value.t array;
      (** join values, positionally, in the canonical shard-hash order
          ({!Shard_key.compare}) *)
  row_off : int array;
      (** length [n+1]; value [i]'s sampled rows live at positions
          [row_off.(i) .. row_off.(i+1) - 1] (of [rows] and of every
          materialized column) *)
  rows : rows;
      (** all non-sentry sampled row indices, concatenated; they index the
          sample's table, which on the serving path holds only the
          sampled rows ({!Synopsis_store.read_entry}) *)
  sentry : int array;  (** sentry row index per value, [-1] when absent *)
  sentry_pos : int array;
      (** position of value [i]'s sentry tuple in the materialized
          columns, [-1] when absent; sentries occupy the positions after
          the non-sentry rows *)
  cols : column array;
      (** the sampled tuples themselves, column-major, one entry per
          schema column — the predicate scan reads these, never the base
          table *)
  p_v : float array;
  q_v : float array;
}

(** What the discrete learner gives on one filtered first side: plain
    floats, never the learner itself (its count-class cache and scratch
    array are mutable, so it cannot be shared across domains). Never
    written once published. *)
type learned = {
  x_v : float array;
      (** x_v of Eq. 7 per first-side position: the learned probability
          of the value's virtual count, 0 for a value with no passing
          sampled row or a rate clamped to [q_v = 0] *)
  virtual_sample_size : float;  (** n of the DL input; 0 for an empty one *)
}

type memo
(** An immutable map from a first side's filtered per-position counts
    (passing non-sentry tuples per value, in position order) to what the
    default learner on the Eq. 6 virtual sample gives on them, or its
    fault. On one flat those counts fix the learner's input (the virtual
    counts, in scan order) and every x_v, so an entry holds exactly the
    bits a solve would give.

    {b Bound.} A memo holds at most [2^16] words: an entry over [n]
    first-side positions is charged [2n + 18] words, which is what its
    key, its x_v and their boxes take on a 64-bit heap. An entry that
    would pass the bound is not kept, so its input is solved per request;
    the entries already kept stay as long as the flat does. The worst
    case is 512 KiB per flat, and 16 MiB for a full 32-slot daemon
    cache. *)

val empty_memo : memo

type t = {
  resolved : Budget.t;  (** the source synopsis' resolved budget and rates *)
  n_prime : float;  (** the source synopsis' [N'] *)
  tuples_a : int;
      (** sampled tuples of the first side, sentries included
          ({!Sample.total_tuples}) *)
  sentries_a : int;  (** {!Sample.sentry_count} of the first side *)
  a : side;
  b : side;
  b_to_a : int array;
      (** position of B value [i] in [a]'s arrays; [-1] when the value is
          dangling (corrupt: S_B ⊆ B ⋉ S_A is violated) *)
  verdict : Fault.error option;
      (** memoized {e structural} validation: finite [N'], non-negative
          tuple counts, no dangling B values, finite positive [p_v],
          finite non-negative [q_v] (the sampler writes [q_v = 0] when a
          budget fits only the sentries) — same fault order and wording
          as the historical per-query [validate_synopsis] *)
  dl_memo : memo Atomic.t;
      (** the discrete learner's outputs on the first sides this flat has
          seen, through {!find_or_learn}. Empty at construction, so
          flattening never runs the learner. {!Estimate.run_checked_flat}
          reads and fills it for a discrete-learning spec with no
          [dl_config] and the virtual sample on; any other call solves
          per request. Domain-safe without a lock: readers take the
          current immutable map, and a writer publishes a new map with
          [Atomic.compare_and_set]. *)
}

val of_synopsis : Synopsis.t -> t
(** Freeze a synopsis. O(size of the synopsis); meant to run once per
    draw/decode/load, never per query. *)

val find_or_learn :
  t ->
  int array ->
  (unit -> (learned, Fault.error) result) ->
  (learned, Fault.error) result
(** [find_or_learn flat counts learn] is the memo's entry for [counts], or
    else [learn ()], kept in the memo if it fits the bound. [counts] is
    the key: the caller must not write to it afterwards. A key is hashed
    with an int fold and compared with a monomorphic loop: a lookup
    hashes the counts in one pass and compares them in full only with
    entries of the same hash. [learn] runs outside any
    lock and its result is complete before it is published. Domains that
    race on one key each run [learn] and get the same bits: the first to
    publish wins, and a loser answers from its own equal copy. A domain
    whose publication lost to a different key retries it on the newer
    map. *)

val validation_runs : unit -> int
(** Process-wide count of structural validations performed by
    {!of_synopsis} — observability for "validate once per load, not per
    query" (see the regression test in test_store.ml). *)
