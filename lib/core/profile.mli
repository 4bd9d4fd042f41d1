(** Offline profile of a two-table equijoin [A |><| B]: everything the
    sampling-phase needs to know about the data — per-value frequencies,
    row groups, and the join value density. Built once per join graph and
    shared by every sampling run and variant.

    A {!side} depends only on one table and one column, and nothing ever
    mutates it (nor the hashtables in it) after {!side_of} returns, so
    one side may serve every join graph that joins on the same column:
    [synopsis-build] groups each distinct (CSV, column) once and builds
    every graph's profile from the shared sides with {!of_sides}. *)

open Repro_relation

type side = {
  table : Table.t;
  column : string;
  groups : int array Value.Tbl.t;  (** join value -> row indices *)
  frequencies : int Value.Tbl.t;  (** join value -> occurrence count *)
  cardinality : int;  (** number of rows, including null-join-value rows *)
  distinct : int;  (** |V| — distinct non-null join values *)
}

type t = {
  a : side;
  b : side;
  shared_values : Value.t array;  (** V_{A,B} = V_A intersect V_B *)
  jvd : float;  (** min(|V_A|/|A|, |V_B|/|B|) *)
  total_rows : int;  (** |A| + |B| — the budget base *)
}

val side_of : Table.t -> string -> side
(** [side_of table column] groups [table]'s rows by [column] (one scan).
    Raises [Invalid_argument] naming the column when [table] lacks it. *)

val of_sides : side -> side -> t
(** [of_sides a b] joins two sides: the shared values (in
    {!Shard_key.compare} order), the jvd and the budget base. The result
    holds [a] and [b] themselves, so sides shared between profiles stay
    shared; either may be the other (a self-join). *)

val of_tables : Table.t -> string -> Table.t -> string -> t
(** [of_tables a col_a b col_b] is
    [of_sides (side_of a col_a) (side_of b col_b)]: it scans both tables
    once. *)

val frequency : side -> Value.t -> int
(** Occurrence count of a value on one side (0 when absent). *)

val true_join_size : t -> int
(** [sum over shared v of a_v * b_v] — exact, for experiment ground truth. *)

val swap : t -> t
(** The same profile with the roles of A and B exchanged — used when the
    sampler decides to sample the other table first (e.g. the FK side of a
    PK-FK join). *)

val is_key_side : side -> bool
(** Whether the join column is unique (a candidate key) on that side —
    detects the PK side of PK-FK joins. *)
