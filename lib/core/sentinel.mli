(** Accuracy drift sentinels: queries with recorded ground truth.

    Seeded at synopsis-build time from the join {!Profile} (which still
    sees the base tables), persisted alongside the synopsis (store format
    v3), and replayed by the serving engine on load/reload — the q-error
    between the recorded truth and the synopsis's current answer is the
    drift signal behind [Fault.Drift].

    Predicates are stored as SQL text ([Predicate_parser] grammar) in the
    {e user-facing} orientation: [left_pred] filters [table_a] of the
    store entry, [right_pred] filters [table_b], [""] means no filter. *)

type t = {
  left_pred : string;  (** predicate on the left table; [""] = none *)
  right_pred : string;  (** predicate on the right table; [""] = none *)
  truth : float;  (** exact join size under those predicates *)
  baseline : float;
      (** the synopsis's q-error on this sentinel at build time
          ([>= 1.0], possibly [infinity]); drift means the replayed
          q-error worsening relative to this, not a large absolute
          q-error *)
}

val seed : Profile.t -> t list
(** Deterministic sentinels for a profile in user-facing orientation:
    the unfiltered join size, plus (when the shared join values contain
    [Int]s and the column names survive a parse round-trip) one
    [column <= median] half-range sentinel per side. A pure function of
    the profile contents — rebuilding from identical tables re-seeds
    byte-identical sentinels, so delta-maintained and freshly built
    stores still compare equal. [baseline] is left at [1.0]; use
    {!with_baselines} against the freshly drawn synopsis to record it. *)

val replay : Synopsis_flat.t -> swapped:bool -> t -> float option
(** Estimate the sentinel's stored query against a flat synopsis
    ([swapped] flips the user-facing predicates into sampler
    orientation) and return the q-error versus the recorded truth.
    [None] if the predicate text no longer parses or the estimator
    faults hard — a sentinel is advisory and never an error. *)

val with_baselines : Synopsis_flat.t -> swapped:bool -> t list -> t list
(** Record each sentinel's current q-error (clamped to [>= 1.0], kept
    when infinite; [1.0] when unreplayable) as its [baseline].
    Deterministic over the flat synopsis, so bit-identical synopses
    record bit-identical baselines — the shard smoke test's
    delta-vs-rebuild store byte comparison relies on this. *)

val worsened : t -> float -> float
(** [worsened s q]: how many times worse the replayed q-error [q] is
    than [s]'s build-time baseline. A replay equal to the baseline is
    exactly [1.0] — [inf] against an [inf] baseline included — so a
    fresh store replays at [1.0] however hard its sentinels are. *)

val predicates :
  t ->
  (Repro_relation.Predicate.t option * Repro_relation.Predicate.t option)
  option
(** Parse the stored predicate texts back into trees ([None] per side for
    [""]); [None] if either side fails to parse — such a sentinel is
    skipped, never an error. *)

val filtered_truth :
  Profile.t ->
  pred_a:Repro_relation.Predicate.t option ->
  pred_b:Repro_relation.Predicate.t option ->
  float
(** Exact filtered join size over the profiled base tables — the truth a
    sentinel records. A predicate that reads only its side's join column
    (every seeded sentinel's does) is evaluated once per join-value group,
    on the group's first row: the rows of group [v] all hold a value
    equal to [v] under {!Repro_relation.Value.Key} (one constructor, and
    floats equal under [Float.equal]), so they answer alike. A predicate
    reading any other column is evaluated row by row. Either way the
    count is the row-by-row count. *)
