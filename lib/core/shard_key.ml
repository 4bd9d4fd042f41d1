open Repro_relation
module Prng = Repro_util.Prng

(* The routing hash is a fixed-base splitmix fold over the value's stable
   byte encoding — no [Hashtbl.hash] anywhere near it, so a value lands on
   the same shard on every OCaml version, word size and process. The base
   is an arbitrary constant; changing it re-homes every value, so it is
   part of the on-disk story (shard segment membership) and must never
   change. *)
let hash_base = 0x5348415244303153L (* "SHARD01S" *)
let hash v = Prng.derive64 hash_base (Value.encode v)

(* Unsigned 64-bit comparison via the sign-flip trick. *)
let compare_u64 a b =
  Int64.compare (Int64.logxor a Int64.min_int) (Int64.logxor b Int64.min_int)

(* Shards are contiguous ranges of the unsigned hash space, not residue
   classes: values sorted by hash fall into shard 0's slice, then shard
   1's, ... so the canonical global layout is the concatenation of the
   per-shard layouts for every shard count at once. Routing uses the top
   32 hash bits — exact integer arithmetic, no 128-bit products. *)
let shard_of ~shards v =
  if shards < 1 then invalid_arg "Shard_key.shard_of: shards must be >= 1";
  let top32 = Int64.to_int (Int64.shift_right_logical (hash v) 32) in
  let i = top32 * shards / 0x1_0000_0000 in
  if i >= shards then shards - 1 else i

(* Canonical total order on values: unsigned hash, ties broken by the
   injective encoding. Every float accumulation on the estimation path
   scans values in this order, which is what makes a K-shard merge
   bit-identical to the monolithic draw: the order does not depend on any
   hashtable's insertion history or on K. *)
let compare a b =
  let c = compare_u64 (hash a) (hash b) in
  if c <> 0 then c else String.compare (Value.encode a) (Value.encode b)

(* [compare] hashes both values on every call, so a sort through it hashes
   each value about 2 log n times. The keyed sort hashes each value once
   and sorts (hash, value, item) triples in the same order; the encodings
   are compared only on equal hashes. Stable, like [List.sort]. Its
   comparison is written out rather than shared with [compare], which
   tests keep as the reference order. *)
let sort_by key items =
  if Array.length items > 1 then begin
    let keyed =
      Array.map
        (fun item ->
          let v = key item in
          (hash v, v, item))
        items
    in
    Array.stable_sort
      (fun (ha, a, _) (hb, b, _) ->
        let c = compare_u64 ha hb in
        if c <> 0 then c else String.compare (Value.encode a) (Value.encode b))
      keyed;
    Array.iteri (fun i (_, _, item) -> items.(i) <- item) keyed
  end

(* Bindings of a [Value.Tbl] in canonical order — the one way hashtable
   contents are allowed to reach a float accumulation or the wire. Equal
   keys (a table grown with [add]) keep the reverse of iteration order. *)
let sorted_bindings tbl =
  let acc = ref [] in
  Value.Tbl.iter (fun k v -> acc := (k, v) :: !acc) tbl;
  let bindings = Array.of_list !acc in
  sort_by fst bindings;
  Array.to_list bindings

let sorted_values values =
  let values = Array.copy values in
  sort_by Fun.id values;
  values
