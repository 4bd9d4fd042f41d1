(** Observability context: the handle instrumented code threads through
    the estimation pipeline.

    A context is either {!null} — every operation is a no-op costing one
    branch, the default everywhere — or live, carrying a
    {!Metrics.Registry} plus an optional {!Trace} sink for spans. The
    instrumented hot paths ([Csdl.Sample], [Csdl.Estimator],
    [Repro_lp.Simplex], [Repro_util.Pool], the bench harness) accept
    [?obs:Obs.ctx] and never change their results based on it: a live
    context only adds atomic metric updates and trace records, so bench
    output stays bit-identical with tracing on or off.

    Typical wiring (see docs/observability.md):
    {[
      let sink = Repro_obs.Trace.file "t.jsonl" in
      let obs = Repro_obs.Obs.create ~sink () in
      ... run the pipeline with ~obs ...
      prerr_string
        (Option.value ~default:"" (Repro_obs.Obs.prometheus obs));
      Repro_obs.Obs.close obs   (* appends the metrics dump, closes t.jsonl *)
    ]} *)

type ctx

val null : ctx
(** The no-op context: no registry, no sink, negligible overhead. *)

val create : ?sink:Trace.sink -> unit -> ctx
(** A live context with a fresh registry. With [sink], finished spans are
    exported as JSONL as they close, and {!close} appends a metrics dump. *)

val is_live : ctx -> bool

val registry : ctx -> Metrics.Registry.t option
(** [None] for {!null}. *)

val count : ctx -> ?labels:(string * string) list -> string -> int -> unit
(** Add to a counter (get-or-create). No-op on {!null}; [count ctx name 0]
    still registers the counter, which pre-declares it in snapshots. *)

val set_gauge : ctx -> ?labels:(string * string) list -> string -> float -> unit
val observe : ctx -> ?labels:(string * string) list -> string -> float -> unit
(** Record a histogram observation (get-or-create). No-op on {!null}. *)

(** {2 Resolved cells}

    {!count}, {!set_gauge} and {!observe} look their metric up by name
    and labels on every call, under the registry's mutex. A hot path
    instead resolves each cell once, when it is set up, and bumps it
    through the handle: a bump is then one atomic update, and on {!null}
    one branch. Making a handle registers its metric, as [count ctx name
    0] does, so it shows in snapshots before the first bump. *)

module Counter : sig
  type t

  val make : ctx -> ?labels:(string * string) list -> string -> t
  val add : t -> int -> unit
  val incr : t -> unit
end

module Gauge : sig
  type t

  val make : ctx -> ?labels:(string * string) list -> string -> t
  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val make : ctx -> ?labels:(string * string) list -> string -> t
  val observe : t -> float -> unit

  val observe_exemplar : t -> id:string -> float -> unit
  (** {!observe}, additionally stamping the histogram's exemplar with the
      request ID that produced the observation (see
      {!Metrics.Histogram.observe_exemplar}). IDs belong in exemplars and
      logs, never in labels — tools/lint_label_cardinality.sh enforces
      the label side. *)
end

val record_runtime : ?domains:int -> ctx -> unit
(** Refresh the OCaml runtime gauges from [Gc.quick_stat]:
    [runtime.gc.heap_words], [runtime.gc.minor_collections],
    [runtime.gc.major_collections], plus [runtime.domains] when the
    caller knows its domain count. Cheap (no collection is forced); the
    server calls it on every [metrics] scrape. No-op on {!null}. *)

val set_build_info : ctx -> store_version:int -> git:string -> unit
(** Register the [repro.build.info] gauge (value 1) whose labels carry
    the synopsis-store format version, the OCaml version, and a git
    describe string ("unknown" when unavailable) — the standard
    build-info pattern, joined against other series at query time. *)

module Span : sig
  type t
  (** A span name resolved on one context: its [span_seconds{name}]
      histogram is looked up once, by {!make}. *)

  val make : ctx -> name:string -> t

  val run : t -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
  (** {!with_} through a resolved span: the same timing, histogram
      observation and span record, with no registry lookup. *)

  val with_ :
    ctx -> name:string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
  (** [with_ ctx ~name f] times [f ()]. On a live context the duration is
      observed into the [span_seconds{name}] histogram, and when the
      context has a sink a span record is emitted with the enclosing
      [with_] on the same domain as its parent. An exception inside [f]
      still emits the span (attr [error]) and is re-raised. On {!null}
      this is exactly [f ()]. *)
end

val prometheus : ctx -> string option
(** {!Metrics.render_prometheus} of the live registry; [None] on {!null}. *)

val dump_metrics : ctx -> unit
(** Append one JSONL line per registered metric to the sink (no-op
    without one). {!close} calls this; call it directly only for
    mid-run snapshots. *)

val close : ctx -> unit
(** Dump metrics and close the sink. Idempotent — a second close neither
    re-dumps the metrics nor touches the sink again, on file and memory
    sinks alike. No-op on {!null} or a sink-less context. *)
