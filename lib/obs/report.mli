(** Trace analytics: turn a JSONL trace file (written by {!Trace} via
    [--trace]) back into something a human can ask questions of — where
    did the wall-clock go, which spans dominate, what is the critical
    path — without external tooling.

    The reader is {e lenient}: malformed lines are skipped and reported
    as located diagnostics instead of sinking the whole file, so a trace
    truncated by a crash (typically a partial final line) still yields
    every complete span. Non-span lines the exporter interleaves (the
    metrics dump appended at [Obs.close]) are counted, not errors;
    unknown line types and unknown span fields are ignored for forward
    compatibility. *)

type diagnostic = {
  line : int;  (** 1-based physical line number *)
  reason : string;  (** self-locating parse failure description *)
}

type reading = {
  spans : Trace.span list;  (** every well-formed span, in file order *)
  metric_lines : int;
      (** [counter]/[gauge]/[histogram] lines from the metrics dump *)
  other_lines : int;  (** well-formed JSON of an unknown line type *)
  skipped : diagnostic list;  (** malformed lines, in file order *)
}

val of_lines : string list -> reading
(** Classify one line per list element. Blank lines are ignored. *)

val read_file : string -> reading
(** {!of_lines} over a file. Raises [Sys_error] on IO failure only;
    nothing in the file's content can make it raise. *)

(** {1 Span trees} *)

type node = { span : Trace.span; children : node list }
(** One span with its children (spans whose [parent] is this span's id),
    ordered by start time. *)

val forest : Trace.span list -> node list
(** Reconstruct the span forest. Roots are spans with no parent — or
    whose parent never appeared in the trace (an orphan from a truncated
    file), so no span is ever dropped. Roots are ordered by start time. *)

(** {1 Aggregation} *)

type agg = {
  name : string;
  count : int;
  total_s : float;  (** summed duration of every span with this name *)
  self_s : float;
      (** summed duration minus time spent in child spans (clamped at 0
          per span, so clock jitter cannot go negative) *)
  p50_s : float;  (** median duration, linear interpolation *)
  p95_s : float;
  max_s : float;
}

val aggregate : Trace.span list -> agg list
(** Per-span-name aggregates, sorted by total time descending (ties by
    name). Empty input yields []. *)

val critical_path : node list -> Trace.span list
(** The heaviest chain through the forest: start at the longest root and
    repeatedly descend into the longest child. [[]] on an empty forest. *)

val folded : node list -> (string * int) list
(** Folded-stack lines for flamegraph.pl / speedscope: each entry is
    [("root;child;...;leaf", self_time_microseconds)], identical stacks
    merged, entries whose self time rounds to 0 µs dropped, sorted by
    stack string. Render as [Printf.printf "%s %d\n"]. *)

(** {1 Rendering} *)

val pp : Format.formatter -> reading -> unit
(** The full textual report: reading summary (span/metric/skipped line
    counts, domains), the aggregate table, and the critical path. Output
    is deterministic for a given reading. *)
