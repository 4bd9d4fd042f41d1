(** Process-wide metrics: counters, gauges and fixed log-scale histograms.

    Every mutation is a single [Atomic] operation (or a CAS retry loop for
    float accumulation), so instrumented code may run concurrently on any
    {!Repro_util.Pool} domain without locks, torn reads, or lost updates.
    Metric {e creation} goes through a mutex-guarded registry; the
    steady-state hot path only touches atomics.

    Naming convention (see docs/observability.md): dot-separated lowercase
    names ([estimate.downgrades.total]), dots become underscores in the
    Prometheus rendering. Labels are [(key, value)] pairs; a metric's
    identity is its name plus its canonically-sorted label set. *)

module Counter : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val incr : t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one observation. NaN observations are dropped; everything
      else lands in a fixed power-of-two bucket (see {!bucket_index}) and
      accumulates into {!sum} and {!count}. *)

  val count : t -> int
  val sum : t -> float

  val bucket_count : int
  (** Number of buckets. Bucket [i] covers [[bucket_upper (i-1),
      bucket_upper i)]; bucket [0] additionally absorbs everything at or
      below its lower bound (zero, negatives, underflow) and the last
      bucket absorbs overflow and [+inf]. *)

  val bucket_index : float -> int
  (** The bucket an observation falls into: power-of-two (log-scale)
      boundaries from [2^-30] up to [2^35], clamped at both ends. *)

  val bucket_upper : int -> float
  (** Exclusive upper bound of bucket [i]: [2^(i - 30)]. *)

  val bucket_value : t -> int -> int
  (** Current count of bucket [i]. *)

  val nonzero_buckets : t -> (float * int) list
  (** [(upper_bound, count)] for every non-empty bucket, in bound order.
      Counts are per-bucket, not cumulative. *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-th quantile ([q] clamped to
      [[0, 1]]) from the log-scale buckets, interpolating linearly inside
      the bucket the rank [q * count] lands in — the same estimate
      Prometheus's [histogram_quantile] computes. Bucket 0's lower bound
      is taken as 0. Exact for values on bucket boundaries; otherwise off
      by at most the bucket width (a factor of 2). [nan] on an empty
      histogram; [quantile t 0.0] is the lower bound of the first
      non-empty bucket, [quantile t 1.0] the upper bound of the last. *)

  val quantile_of : bucket:(int -> int) -> total:int -> float -> float
  (** The quantile estimate of {!quantile} abstracted over the bucket
      counts: [bucket i] must return the count of bucket [i] under this
      module's {!bucket_index} scheme and [total] their sum. Lets
      sliding-window histograms ({!Rolling.Histogram}) reuse the exact
      same interpolation over merged slots. *)

  val observe_exemplar : t -> id:string -> float -> unit
  (** {!observe}, additionally recording [(id, v)] as the histogram's
      exemplar — the last request ID to contribute an observation.
      Exemplars are exposed only through {!exemplar}; they never appear
      in snapshots or the Prometheus rendering, so they cannot perturb
      golden outputs. *)

  val exemplar : t -> (string * float) option
  (** Last [(id, value)] recorded by {!observe_exemplar}, if any. *)
end

type point =
  | P_counter of int
  | P_gauge of float
  | P_histogram of { count : int; sum : float; buckets : (float * int) list }
      (** [buckets] as in {!Histogram.nonzero_buckets}. *)

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?labels:(string * string) list -> string -> Counter.t
  (** Get-or-create; subsequent calls with the same name and label set
      return the same counter. Raises [Invalid_argument] if the name is
      already registered as a different metric kind. *)

  val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t
  val histogram : t -> ?labels:(string * string) list -> string -> Histogram.t

  val lookups : t -> int
  (** How many times {!counter}, {!gauge} and {!histogram} have looked a
      metric up by name and labels in this registry. A hot path resolves
      its cells once and bumps them through the returned handles, so its
      requests leave this count unchanged. *)

  val snapshot : t -> (string * (string * string) list * point) list
  (** Point-in-time values of every registered metric, sorted by name then
      labels — the stable order both exporters render in. *)
end

val render_prometheus : Registry.t -> string
(** The registry as a Prometheus text-format snapshot: [# TYPE] comments,
    sanitised names (dots to underscores), histograms expanded into
    cumulative [_bucket{le="..."}] series plus [_sum]/[_count]. Output is
    deterministic for a given registry state. *)
