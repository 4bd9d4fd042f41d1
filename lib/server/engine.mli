(** The serving core: synopsis loading with retry, breaker and cache, plus
    the per-request degradation ladder. Protocol-agnostic — {!Server}
    wraps it in the TCP framing, tests drive it directly.

    An engine owns the persisted synopsis store at one path. At startup it
    decodes the store once to learn the key set and per-key metadata
    (orientation, cache key, independence prior) and warms the synopsis
    cache. At serving time a request for a key resolves its synopsis
    through, in order: the mutex-wrapped LRU cache; a single-flight load
    shared by every domain missing on the same key; a per-key circuit
    breaker; and retry with jittered backoff. A load reads only the
    missed key's entry ({!Csdl.Synopsis_store.read_entry}: the whole file
    verified, only the rows that key samples read from its tables, whose
    fingerprints must still match) and must match the
    snapshot's metadata; an entry rewritten since the last {!reload}
    degrades with [Store_mismatch {what = "snapshot"}], unretried. Every
    failure mode ends in a typed outcome — never an exception and never a
    hang:

    - [Answered v]: the full CSDL estimation path ran; [v] is
      byte-identical to what [repro_cli batch] prints for the same query.
    - [Degraded _]: the synopsis could not be loaded (torn store, tripped
      breaker, injected chaos, a store rewritten under the snapshot) or
      failed checked estimation; the reply is
      the sampling-free independence prior [|A|·|B| / max(d_A, d_B)],
      with the downgrade trace reporting exactly what happened.
    - [Deadline_exceeded _]: the request ran out of its time budget.
      Deadlines are enforced at stage boundaries (admission, post-load,
      post-estimate) and inside the retry loop, so a request overshoots
      its budget by at most one stage, never unboundedly.

    Chaos mode ([config.chaos] > 0) corrupts that fraction of store
    {e loads} (not requests — a cached synopsis is not re-corrupted),
    choosing per load between a hard failure (exercises retry + breaker)
    and a silent {!Repro_robustness.Fault_injection} corruption that the
    checked estimator must catch (exercises the ladder). Injection is
    keyed PRNG-driven: same seed, same store, same corruption sequence. *)

open Repro_relation

type config = {
  cache_capacity : int;  (** LRU slots for decoded synopses; min 1 *)
  breaker : Breaker.config;
  backoff : Backoff.policy;
  chaos : float;  (** fraction of loads corrupted, 0 disables; clamped to [0,1] *)
  seed : int;  (** keyed-PRNG seed for chaos and backoff jitter *)
  drift_limit : float;
      (** how many times worse than its build-time baseline a sentinel's
          replayed q-error may get before the key is flagged as drifted
          ({!Csdl.Fault.Drift}); clamped to [>= 1] *)
}

val default_config : config
(** 32 cache slots, {!Breaker.default_config}, {!Backoff.default}, no
    chaos, seed 1, drift limit 8. *)

type t

val create :
  ?obs:Repro_obs.Obs.ctx ->
  ?clock:Repro_util.Clock.t ->
  ?sleep:Repro_util.Clock.sleeper ->
  ?read_rows:Table.row_reader ->
  config ->
  resolve_table:(string -> Table.t) ->
  store_path:string ->
  (t, Csdl.Fault.error) result
(** Decode the store at [store_path], build per-key metadata and warm the
    cache (up to [cache_capacity] entries). [Error _] means the store
    itself is unreadable — the server refuses to start rather than serve
    nothing. [clock]/[sleep] are injectable for tests; a live [obs]
    context feeds the [server.*] and [synopsis_cache.*] metrics.

    The start-up decode, every {!reload} and every cache miss read the
    base tables through [read_rows]
    ({!Csdl.Synopsis_store.read_served}, {!Csdl.Synopsis_store.read_entry}):
    only the rows the synopses sample are built, and each key's
    independence prior takes the whole tables' cardinalities and
    join-column distinct counts from the start-up or reload decode.
    [repro_cli serve] passes {!Repro_relation.Csv_io.read_rows}, so the
    daemon never builds a whole table. The default,
    [fun name -> Table.read_rows (resolve_table name)], builds each
    whole table and keeps only those rows, with the same results;
    [resolve_table] is used only through it. *)

val keys : t -> string list
(** Served keys, sorted. *)

val reload : t -> (int, Csdl.Fault.error) result
(** Re-decode the store file and atomically swap in its current contents
    — keys, metadata, warmed cache entries — without dropping in-flight
    requests: a request that already resolved its metadata completes
    against the immutable flat view it started with, every later request
    sees the new snapshot. How the delta CLI's store rewrites reach a
    running server. [Ok n] is the number of keys now served; on [Error _]
    (unreadable or torn store) the previous snapshot keeps serving.
    Concurrent calls collapse into one decode. *)

val cache_stats : t -> Csdl.Synopsis_cache.stats
val breaker_state : t -> string -> [ `Closed of int | `Open | `Half_open ]

type drift = {
  d_key : string;
  d_qerror : float;  (** worst sentinel q-error for this key *)
  d_worsened : float;
      (** worst sentinel q-error as a multiple of its build-time
          baseline — [1.0] on a store identical to its build *)
  d_limit : float;
  d_fault : Csdl.Fault.error option;
      (** [Some (Fault.Drift _)] iff [d_worsened > d_limit] *)
}

val drift_status : t -> drift list
(** Per-key accuracy drift, from the most recent sentinel replay (at
    {!create} and every successful {!reload}): each stored {!Csdl.Sentinel}
    query is re-estimated against the freshly decoded synopsis and its
    q-error against the recorded truth compared to the build-time
    baseline times [config.drift_limit]. Sorted by key. Empty when the
    store carries no sentinels. *)

val sentinel_window : t -> Repro_obs.Rolling.Histogram.t
(** Rolling (1 h) histogram of every sentinel q-error replayed — the
    feed behind the [server.sentinel.qerror] gauge. *)

type outcome =
  | Answered of float
  | Degraded of { value : float; trace : Csdl.Fault.trace }
  | Deadline_exceeded of Csdl.Fault.error
  | Rejected of Csdl.Fault.error
      (** the request itself is invalid ([Bad_input]: a predicate names a
          column the table lacks); no fall-back answers it *)

val outcome_class : outcome -> string
(** ["answered"] / ["degraded"] / ["deadline_exceeded"] / ["err"] — the
    [class] label of the [server.outcome] counter. *)

type detail = {
  cache_hit : bool;  (** synopsis came straight from the LRU cache *)
  shards : int;  (** shard-segment count recorded for the key *)
}

val handle_traced :
  t ->
  deadline:Deadline.t ->
  key:string ->
  ?rid:string ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  unit ->
  (outcome * detail) option
(** Serve one estimation request. Predicates are in the original (A, B)
    orientation, as with [Store.estimate]. [None] for a key the current
    snapshot does not serve (protocol errors are not estimation
    outcomes): the snapshot is read once, so a {!reload} that drops the
    key while the request is being read answers [None], never an
    exception. [rid] tags the request's span and latency exemplar with
    the request ID; it never becomes a metric label. The extra {!detail}
    feeds the access log. Domain-safe: any number of workers may call
    this concurrently. *)

val handle :
  t ->
  deadline:Deadline.t ->
  key:string ->
  ?rid:string ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  unit ->
  outcome
(** {!handle_traced} without the access-log detail; raises [Not_found]
    for a key the current snapshot does not serve. *)
