(** Versioned, checksummed binary persistence for drawn synopses — the
    offline half of the paper's offline/online split, made durable.

    A store file is [magic | version | schema-hash | payload-length |
    payload-checksum | payload], all integers 64-bit little-endian. The
    schema hash fingerprints the wire {e layout} (a descriptor string baked
    into this module), so readers reject files whose field layout drifted
    even at an unchanged version number; the checksum (FNV-1a over the
    payload bytes) rejects bit rot and truncation. The payload stores, per
    synopsis: the join-graph key, both base-table names and content
    fingerprints ({!Repro_relation.Table.fingerprint}), the orientation
    flag, the PRNG key the samples were drawn with, the fully resolved
    budget (spec, theta, p/q/u rates, base q) and both per-value tuple
    samples with their sentry bookkeeping.

    Tables themselves are {e not} stored — only sampled row indices — so
    decoding takes a resolver from table name to table ({!decode},
    {!read}) or to just the sampled rows ({!read_served},
    {!read_entry}, what a server reads) and refuses (typed
    {!Fault.Store_mismatch}, never a crash) to rehydrate against data
    whose fingerprint differs from the recorded one.

    Since v2, each sample is stored as [shards] independent segments —
    shard [k] holding the entries {!Shard_key.shard_of} routes to it,
    canonically sorted, length-prefixed and FNV-checksummed per segment —
    so single shards can be verified or swapped without touching their
    neighbours, and truncation inside one segment is rejected by shard
    index. All downstream float accumulation runs in the canonical
    {!Shard_key} order, so estimates against a decoded synopsis are
    bit-identical to estimates against the freshly drawn one (pinned by
    test_store.ml for every variant), regardless of the shard count it
    was stored with. *)

open Repro_relation

type stored = {
  key : string;  (** join-graph key in the store *)
  table_a : string;  (** original A-side table name *)
  table_b : string;  (** original B-side table name *)
  swapped : bool;  (** the sampler operated on the (B, A) orientation *)
  fingerprint_a : int64;  (** {!Table.fingerprint} of [table_a]'s data *)
  fingerprint_b : int64;  (** {!Table.fingerprint} of [table_b]'s data *)
  prng_key : string;
      (** the keyed-PRNG stream the samples were drawn from (informational;
          [""] when the caller did not record one) *)
  shards : int;
      (** number of per-sample shard segments in the file ([>= 1]); how
          the synopsis was built, and how delta maintenance re-shards it *)
  sentinels : Sentinel.t list;
      (** accuracy drift sentinels in user-facing orientation (new in
          v3) — seeded at build time, re-seeded by delta maintenance,
          replayed by the serving engine on load/reload *)
  synopsis : Synopsis.t;  (** in sampler orientation, as {!Synopsis.draw} *)
}

val version : int

val schema_hash : int64
(** FNV-1a hash of the wire-layout descriptor for [version]. *)

val checksum : string -> int -> int -> int64
(** [checksum s pos len] is the 64-bit FNV-1a hash of the [len] bytes of
    [s] from [pos] — the checksum the store records for its payload and
    for each shard segment. The decoder runs it over each range in place,
    without copying it out. *)

val encode : stored list -> string
(** Serialize to the full file image (header + payload). *)

val decode :
  resolve_table:(string -> Table.t) ->
  string ->
  (stored list, Fault.error) result
(** Parse a file image. Every failure — bad magic, version or layout
    drift, checksum mismatch, truncated or malformed payload, resolver
    failure, fingerprint mismatch, a sampled row or sentry index outside
    its resolved table ([what = "row"]) — comes back as
    [Error (Store_mismatch _)]; this function never raises.

    The whole payload is checked first — the header, the payload
    checksum, and every entry's structure, shard segment lengths,
    checksums and trailing bytes — before any table is resolved; then
    each entry, in file order, resolves its tables, checks their
    fingerprints and its row indices, and builds its samples. An image
    with two faults therefore reports a structural one before a table,
    fingerprint or row fault of an earlier entry. The payload and each
    shard segment are checksummed and read in place, as ranges of the
    image; positions in a fault's detail count from the start of the
    payload or segment.

    Each distinct table name is passed to [resolve_table] and
    fingerprinted once per call, however many entries name it, and every
    entry checks the result against its own recorded fingerprints. The
    entries therefore share their whole tables physically, which is
    sound because a [Table.t] is never mutated; their row indices address
    those tables, so the result can be re-encoded or maintained by
    delta ({!Synopsis_shard}). *)

val write : path:string -> stored list -> unit
(** Crash-safe: the image is written to a temp file in [path]'s directory
    and atomically renamed over [path], so a killed writer never leaves a
    torn store file — readers observe the old contents or the new ones,
    nothing in between. *)

val read :
  resolve_table:(string -> Table.t) ->
  path:string ->
  (stored list, Fault.error) result
(** [encode]/[decode] through a file; unreadable files are
    [Error (Store_mismatch {what = "file"; _})]. *)

(** {2 The serving reads}

    A server answers from the sampled rows alone, so these two reads
    resolve each table name through a {!Table.row_reader} (once per
    call, for the union of the rows the wanted entries sample) and build
    each sample over a table of just those rows: its row indices are
    renumbered into that table, so an entry they return must not be
    re-encoded. Every check, fault and fault text is {!decode}'s, in its
    order; the fingerprint and row-range checks use the whole table's
    fingerprint and cardinality, which the reader reports. A reader that
    raises, for a missing file or a column the table lacks, fails the
    read with [what = "table"]. *)

type side = {
  cardinality : int;  (** rows of the whole base table *)
  distinct : int;
      (** {!Table.distinct_count} of the sample's join column over the
          whole base table *)
}

type served = {
  entry : stored;  (** samples over their sampled rows only *)
  side_a : side;  (** the table of [entry.synopsis.sample_a] *)
  side_b : side;  (** the table of [entry.synopsis.sample_b] *)
}
(** One entry as a server loads it, with what the independence prior
    needs of its two whole tables. *)

val read_served :
  read_rows:Table.row_reader ->
  path:string ->
  (served list, Fault.error) result
(** Every entry of the store at [path], as {!read} reads them but over
    their sampled rows, each with its two {!side}s: what a server loads
    at start-up and on reload. Never raises. *)

val read_entry :
  read_rows:Table.row_reader ->
  path:string ->
  key:string ->
  (stored, Fault.error) result
(** The entry stored under [key], over its sampled rows: the per-key load
    of a serving cache miss. Every whole-file check still runs — magic,
    version, schema hash, payload checksum, each shard segment's length,
    checksum and trailing bytes, no bytes after the last entry — but only
    [key]'s tables are read and fingerprint-checked, and only its samples
    are built: the other entries are walked, never rehydrated, so a
    missing or changed table of another entry does not fail this call.
    No distinct count is asked for. A key absent from the file is
    [Error (Store_mismatch {what = "key"; _})]; should the file repeat a
    key, the last copy wins. Never raises. *)
