type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

let equal a b =
  match (a, b) with
  | Null, _ | _, Null -> false
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Str x, Str y -> String.equal x y
  | (Int _ | Float _ | Str _), _ -> false

let constructor_rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (constructor_rank a) (constructor_rank b)

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash x
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s

(* Stable injective byte rendering: one tag byte, then the payload bits.
   Pure Int64/string arithmetic — the same value encodes to the same bytes
   on every OCaml version and word size, unlike [Marshal] or
   [Hashtbl.hash]. Used to name per-value PRNG sub-streams and to route
   values to shards, so it must never change silently. *)
let encode v =
  let buf = Buffer.create 16 in
  (match v with
  | Null -> Buffer.add_char buf '\x00'
  | Int x ->
      Buffer.add_char buf '\x01';
      Buffer.add_int64_le buf (Int64.of_int x)
  | Float x ->
      Buffer.add_char buf '\x02';
      Buffer.add_int64_le buf (Int64.bits_of_float x)
  | Str s ->
      Buffer.add_char buf '\x03';
      Buffer.add_string buf s);
  Buffer.contents buf

let to_string = function
  | Null -> "NULL"
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"

let as_int = function Int x -> Some x | Null | Float _ | Str _ -> None

let as_float = function
  | Float x -> Some x
  | Int x -> Some (float_of_int x)
  | Null | Str _ -> None

let as_string = function Str s -> Some s | Null | Int _ | Float _ -> None

(* Container equality keeps the constructors apart: an [Int] key never
   equals a [Float] key, so equal keys always hash alike. Equating
   [Int x] with [Float (float_of_int x)] here would need an integral float
   to hash as its int, and past 2^53 [Int (2^53 + 1)] would then equal
   the float 2^53 without equalling [Int (2^53)]. *)
module Key = struct
  type nonrec t = t

  let equal a b =
    match (a, b) with
    | Null, Null -> true
    | Int x, Int y -> Int.equal x y
    | Float x, Float y -> Float.equal x y
    | Str x, Str y -> String.equal x y
    | (Null | Int _ | Float _ | Str _), _ -> false

  let hash = hash
end

module Tbl = Hashtbl.Make (Key)
