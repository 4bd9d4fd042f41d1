(** In-memory row-major tables.

    A table is immutable once built; rows are exposed without copying, so
    callers must not mutate them. Sized for the experiments in this
    repository (up to a few million rows). *)

type t

val create : ?validate:bool -> Schema.t -> Value.t array array -> t
(** [create schema rows] wraps [rows] (taken by reference). With
    [~validate:true] (default [false]) every cell is checked against the
    schema's column types; arity is always checked. *)

val of_rows : Schema.t -> Value.t array list -> t

val schema : t -> Schema.t
val cardinality : t -> int
val row : t -> int -> Value.t array
val iter : (Value.t array -> unit) -> t -> unit
val iteri : (int -> Value.t array -> unit) -> t -> unit
val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

val column_index : t -> string -> int
(** Raises [Invalid_argument] naming the column when absent. *)

val column_values : t -> string -> Value.t array
(** All values (including duplicates and nulls) of one column, in row
    order. *)

val filter : (Value.t array -> bool) -> t -> t
(** Rows satisfying the predicate, sharing row arrays with the original. *)

val select_rows : t -> int array -> t
(** Sub-table with exactly the given row indices (shared row arrays). *)

val frequency_map : t -> string -> int Value.Tbl.t
(** Per-value occurrence counts of a column, skipping [Null]s (which never
    participate in equijoins). *)

val group_by : t -> string -> int array Value.Tbl.t
(** Row indices grouped by the value of a column, skipping [Null]s. Index
    arrays are in increasing row order. *)

val distinct_count : t -> string -> int
(** Number of distinct non-null values in a column — the [|V_A|] of the
    paper's join value density. Equal to the size of {!frequency_map}'s
    table, but counted without per-value counts. *)

val pp_head : ?limit:int -> Format.formatter -> t -> unit
(** Debug printer: schema plus the first [limit] (default 10) rows. *)

val fingerprint : t -> int64
(** Content fingerprint (64-bit FNV-1a over schema and rows, in row
    order). Equal tables fingerprint equally on every platform; the
    synopsis store records it so persisted row indices are never
    rehydrated against different base data. Not cryptographic. The
    hashed bytes are fixed: the cardinality, then per column its name
    (length-prefixed) and a type byte, then per cell a tag byte and its
    payload (an int's or a float's 64 bits little-endian, a string's
    length then bytes). The loop keeps its accumulator unboxed and
    allocates nothing per cell. It hashes those bytes in fewer multiplies:
    an FNV-1a step over a zero byte is a multiply by the prime, so the
    zero bytes above a non-negative int's low two (or four) bytes, and a
    string length's, fold into one multiply by a power of the prime. The
    hash is the same. *)

val fingerprint_header : cardinality:int -> Schema.t -> int64
(** The hash {!fingerprint} has reached after the cardinality and the
    schema, before the first cell: where a reader that never builds the
    table ({!Csv_io.read_rows}) starts hashing its cells, in the byte
    order above. *)

(** What a server needs of a base table it rehydrates sampled rows from:
    the whole table's schema, cardinality, {!fingerprint} and per-column
    {!distinct_count}, and only the rows a synopsis samples. *)
type sampled = {
  schema : Schema.t;
  cardinality : int;
  fingerprint : int64;  (** {!fingerprint} of the whole table *)
  distinct : (string * int) list;
      (** [(c, distinct_count table c)] for each requested column [c], in
          request order *)
  rows : t;
      (** the requested rows inside [[0, cardinality)], in request order,
          duplicates kept; an index outside that range is skipped *)
}

type row_reader = string -> columns:string list -> rows:int array -> sampled
(** A table name to its {!sampled} part. {!Csv_io.read_rows} is one over
    CSV paths; [fun name -> read_rows (resolve name)] is one for any
    [resolve : string -> t]. *)

val read_rows : t -> columns:string list -> rows:int array -> sampled
(** The whole-table {!row_reader}: {!fingerprint}, {!distinct_count} and
    {!select_rows} of a table already built. Raises [Invalid_argument]
    for a column the table lacks, as {!distinct_count} does. *)
