(** A synopsis store: the workload-level object a system would actually
    deploy. Correlated sampling builds one synopsis per frequently-queried
    join graph (Section III's storage discussion); this module keeps them
    under string keys, answers estimation queries against them, and
    persists them to disk so the offline phase survives restarts.

    Persistence is the versioned, checksummed binary format of
    {!Synopsis_store}: sampled row indices plus the originating table
    {e names} and content fingerprints — not the tables — so a saved store
    is only meaningful against the same (deterministically regenerable)
    base data. [load] takes a resolver from table name to
    {!Repro_relation.Table.t} and verifies each table's fingerprint against
    the recorded one before rehydrating. *)

open Repro_relation

type t

val create : unit -> t

val add :
  ?prng_key:string ->
  ?shards:int ->
  t ->
  key:string ->
  table_a:string ->
  table_b:string ->
  Estimator.t ->
  Synopsis.t ->
  unit
(** Register a drawn synopsis under [key]. [table_a]/[table_b] name the
    estimator's original A and B tables (used to rehydrate after [load]);
    their content fingerprints are computed here, at registration time,
    except that a table some entry of [t] already holds (the same table,
    physically: tables are never mutated) has its recorded fingerprint
    reused. [prng_key] records which keyed PRNG stream drew the synopsis (purely
    informational provenance; defaults to [""]). [shards] (default 1,
    must be [>= 1]) is the partition count the synopsis is persisted
    with — see {!Synopsis_shard}; estimates do not depend on it. Also
    seeds the entry's drift {!Sentinel}s from the estimator's profile.
    Replaces any previous synopsis under the same key. *)

val keys : t -> string list
val mem : t -> string -> bool
val remove : t -> string -> unit

val sentinels : t -> string -> Sentinel.t list
(** Drift sentinels recorded for [key] ([[]] for an unknown key) —
    seeded by {!add} from the estimator's profile, in user-facing
    orientation; persisted with the entry since store format v3. *)

type info = {
  i_table_a : string;
  i_table_b : string;
  i_swapped : bool;
  i_theta : float;
  i_variant : string;  (** {!Spec.to_string} of the resolved spec *)
  i_prng_key : string;
  i_shards : int;  (** shard-segment count the synopsis persists with *)
  i_tuples : int;  (** stored sample tuples in this synopsis *)
  i_fingerprint_a : int64;  (** content fingerprint of [i_table_a]'s data *)
  i_fingerprint_b : int64;  (** content fingerprint of [i_table_b]'s data *)
}

val info : t -> string -> info option
(** Provenance view of one entry, e.g. for CLI reporting. *)

val estimate :
  ?obs:Repro_obs.Obs.ctx ->
  ?dl_config:Discrete_learning.config ->
  ?pred_a:Predicate.t ->
  ?pred_b:Predicate.t ->
  t ->
  key:string ->
  float
(** Online estimation against a stored synopsis; predicates are in the
    original (A, B) orientation, as with {!Estimator.estimate}. The value
    is {!Estimate.value} of {!Estimate.run_checked_flat} on the entry's
    flat view — what the daemon answers for the same query. Raises
    [Not_found] for an unknown key and [Failure] on any other fault than
    an empty filtered sample (which answers 0); no synopsis the sampler
    draws reaches that raise. *)

val total_tuples : t -> int
(** Stored sample tuples across all synopses — the store's footprint. *)

val save : t -> string -> unit
(** Write the store to a file ({!Synopsis_store} format, entries sorted by
    key so identical stores produce identical bytes). *)

val load : resolve_table:(string -> Table.t) -> string -> t
(** Read a store back; [resolve_table] maps each recorded table name to
    the (identical) base table. Raises [Failure] on a bad, corrupted or
    version-mismatched file — use {!load_result} for a typed error. *)

val load_result :
  resolve_table:(string -> Table.t) -> string -> (t, Fault.error) result
(** Like {!load} but returning {!Fault.Store_mismatch} faults instead of
    raising. *)
