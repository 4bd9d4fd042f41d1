(** SQL-ish atomic values. Join columns in this repository are typically
    [Int] keys or [Str] titles; [Null] never joins (SQL semantics). *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool
(** SQL equality: [Null] equals nothing, itself included. [Int] and
    [Float] compare numerically ([Int x] equals [Float y] when
    [float_of_int x = y]); floats compare with [Float.equal], so
    [nan] equals [nan] and [0.] equals [-0.]. Strings compare by content,
    and no string equals a number. *)

val compare : t -> t -> int
(** Order for sorting and predicates: [Null] before every number, every
    number before every [Str]. [Int] and [Float] compare numerically
    ([Int x] against [Float y] as [Float.compare (float_of_int x) y], so
    [nan] sorts below every number), strings by [String.compare], and
    [Null] compares equal to itself. Past 2^53 [float_of_int] rounds, so
    the order is not transitive there: [Int (2^53)] and [Int (2^53 + 1)]
    both compare equal to [Float 2^53], but not to each other. *)

val hash : t -> int
(** Hash of the payload ([Hashtbl.hash] of the int, float or string; 0
    for [Null]). An [Int] and a [Float] of equal value need not hash
    alike. *)

val encode : t -> string
(** Stable injective byte rendering (tag byte + payload bits, ints and
    float bits little-endian). Identical across OCaml versions and word
    sizes; used to key per-value PRNG sub-streams and shard routing.
    Distinct values always encode to distinct byte strings. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val type_name : t -> string
(** ["null" | "int" | "float" | "string"] — used in error messages. *)

val as_int : t -> int option
val as_float : t -> float option
(** [as_float] widens [Int] values too. *)

val as_string : t -> string option

module Key : Hashtbl.HashedType with type t = t
(** The key equality and hash behind {!Tbl}. Unlike {!equal}, [Null]
    equals itself, and an [Int] never equals a [Float]: [Int 3] and
    [Float 3.] are two keys. Floats compare with [Float.equal], so every
    [nan] is one key and [0.] and [-0.] are one key. Equal keys hash
    alike. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by values under {!Key}'s equality. Callers that
    implement join semantics must skip [Null] keys themselves. *)
