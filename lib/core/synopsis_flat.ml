open Repro_relation

type rows = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type column =
  | Ints of rows
  | Floats of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  | Boxed of Value.t array

type side = {
  schema : Schema.t;
  column : string;
  values : Value.t array;
  row_off : int array;
  rows : rows;
  sentry : int array;
  sentry_pos : int array;
  cols : column array;
  p_v : float array;
  q_v : float array;
}

type learned = { x_v : float array; virtual_sample_size : float }

(* ---------------- the learner memo ---------------- *)

(* A key is the first side's filtered counts with their hash; keys
   compare by hash first, then by a monomorphic loop over the counts, so
   a lookup reads the counts once to hash them and once more only on the
   entry it lands on. The hash weighs each count by its own odd
   multiplier: the multiplies do not wait on each other, so hashing costs
   about what one comparison pass does. *)
type key = { hash : int; counts : int array }

let hash_counts counts =
  let h = ref (Array.length counts) and m = ref 0x100000001b3 in
  for i = 0 to Array.length counts - 1 do
    h := !h + (Array.unsafe_get counts i * !m);
    m := !m + 0x9e3779b97f4a7c2
  done;
  !h

let compare_counts (a : int array) (b : int array) =
  let n = Array.length a in
  if n <> Array.length b then Int.compare n (Array.length b)
  else
    let rec from i =
      if i = n then 0
      else
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        if x = y then from (i + 1) else if x < y then -1 else 1
    in
    from 0

module Keys = Map.Make (struct
  type t = key

  let compare a b =
    let c = Int.compare a.hash b.hash in
    if c <> 0 then c else compare_counts a.counts b.counts
end)

type memo = { entries : (learned, Fault.error) result Keys.t; words : int }

let empty_memo = { entries = Keys.empty; words = 0 }
let memo_words = 1 lsl 16

(* What one entry over [n] positions holds on a 64-bit heap: the counts
   and x_v arrays (n words and a header each), the key record (3), the
   map node (6), the [Ok] box (2), the learned record (3) and its boxed
   virtual sample size (2). A fault entry is charged the same. *)
let entry_words n = (2 * n) + 18

type t = {
  resolved : Budget.t;
  n_prime : float;
  tuples_a : int;
  sentries_a : int;
  a : side;
  b : side;
  b_to_a : int array;
  verdict : Fault.error option;
  dl_memo : memo Atomic.t;
}

(* Readers take the current map and never lock. A writer publishes a new
   map with [compare_and_set], after [learn] has filled the entry, and
   retries only when another domain published a different entry first.
   The counts array becomes the key, so the caller must not write to it
   afterwards. *)
let find_or_learn t counts learn =
  let key = { hash = hash_counts counts; counts } in
  match Keys.find_opt key (Atomic.get t.dl_memo).entries with
  | Some learned -> learned
  | None ->
      let learned = learn () in
      let cost = entry_words (Array.length counts) in
      let rec publish () =
        let memo = Atomic.get t.dl_memo in
        if memo.words + cost <= memo_words && not (Keys.mem key memo.entries)
        then
          let grown =
            {
              entries = Keys.add key learned memo.entries;
              words = memo.words + cost;
            }
          in
          if not (Atomic.compare_and_set t.dl_memo memo grown) then publish ()
      in
      publish ();
      learned

(* Flatten one sample. Values are laid out in the canonical shard-hash
   order ([Shard_key.compare]): the estimate loops accumulate floats in
   scan order, and the canonical order is the same no matter which
   hashtable the entries came out of or how the table was partitioned —
   a K-shard merge therefore yields the same layout (and the same printed
   %.17g digits) as the monolithic draw. *)
let side_of_sample (sample : Sample.t) =
  let n = Value.Tbl.length sample.Sample.entries in
  let bindings = Shard_key.sorted_bindings sample.Sample.entries in
  let values = Array.make n Value.Null in
  let row_off = Array.make (n + 1) 0 in
  let sentry = Array.make n (-1) in
  let p_v = Array.make n 0.0 in
  let q_v = Array.make n 0.0 in
  let total_rows =
    List.fold_left
      (fun acc (_, (e : Sample.entry)) -> acc + Array.length e.Sample.rows)
      0 bindings
  in
  let rows =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout total_rows
  in
  let i = ref 0 and off = ref 0 in
  List.iter
    (fun (v, (e : Sample.entry)) ->
      values.(!i) <- v;
      row_off.(!i) <- !off;
      (match e.Sample.sentry_row with
      | Some r -> sentry.(!i) <- r
      | None -> ());
      p_v.(!i) <- e.Sample.p_v;
      q_v.(!i) <- e.Sample.q_v;
      Array.iter
        (fun r ->
          Bigarray.Array1.unsafe_set rows !off r;
          incr off)
        e.Sample.rows;
      incr i)
    bindings;
  row_off.(n) <- !off;
  (* Sentry tuples are materialized after the non-sentry rows; record each
     value's sentry position so the predicate scan can reach it through
     the same columns. *)
  let sentry_pos = Array.make n (-1) in
  let n_sentries = ref 0 in
  for i = 0 to n - 1 do
    if sentry.(i) >= 0 then begin
      sentry_pos.(i) <- total_rows + !n_sentries;
      incr n_sentries
    end
  done;
  (* Gather the sampled tuples column-major. Boxed first; a column whose
     sampled values are all Int (resp. all Float) is then unboxed into a
     Bigarray so the scan reads immediates off contiguous memory. *)
  let table = sample.Sample.table in
  let arity = Schema.arity (Table.schema table) in
  let n_positions = total_rows + !n_sentries in
  let boxed = Array.init arity (fun _ -> Array.make n_positions Value.Null) in
  let fill pos row_index =
    let row = Table.row table row_index in
    for c = 0 to arity - 1 do
      (boxed.(c)).(pos) <- row.(c)
    done
  in
  for j = 0 to total_rows - 1 do
    fill j (Bigarray.Array1.unsafe_get rows j)
  done;
  for i = 0 to n - 1 do
    if sentry_pos.(i) >= 0 then fill sentry_pos.(i) sentry.(i)
  done;
  let unbox (col : Value.t array) =
    let all p = Array.for_all p col in
    if n_positions > 0 && all (function Value.Int _ -> true | _ -> false)
    then begin
      let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n_positions in
      Array.iteri
        (fun j v -> a.{j} <- Option.value (Value.as_int v) ~default:0)
        col;
      Ints a
    end
    else if
      n_positions > 0 && all (function Value.Float _ -> true | _ -> false)
    then begin
      let a =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n_positions
      in
      Array.iteri
        (fun j v -> a.{j} <- Option.value (Value.as_float v) ~default:0.0)
        col;
      Floats a
    end
    else Boxed col
  in
  {
    schema = Table.schema table;
    column = sample.Sample.column;
    values;
    row_off;
    sentry;
    sentry_pos;
    cols = Array.map unbox boxed;
    p_v;
    q_v;
    rows;
  }

(* ---------------- structural validation ---------------- *)

(* Same fault order and wording as the historical per-query
   [Estimate.validate_synopsis]; "first faulty entry" is first in the
   canonical value order. A second-level rate of 0 is valid: the sampler
   clamps q_v to 0 when a budget fits only the sentries. *)

let validations = Atomic.make 0
let validation_runs () = Atomic.get validations

let validate_side label (s : side) =
  let n = Array.length s.values in
  let fault = ref None in
  let i = ref 0 in
  while !fault = None && !i < n do
    let p = s.p_v.(!i) and q = s.q_v.(!i) in
    if not (Float.is_finite p) || p <= 0.0 then
      fault :=
        Some (Fault.Numeric { what = label ^ " sampling rate p_v"; value = p })
    else if not (Float.is_finite q) || q < 0.0 then
      fault :=
        Some (Fault.Numeric { what = label ^ " sampling rate q_v"; value = q });
    incr i
  done;
  !fault

let validate (syn : Synopsis.t) ~a ~b ~b_to_a =
  Atomic.incr validations;
  let n_prime = syn.Synopsis.n_prime in
  if not (Float.is_finite n_prime) || n_prime < 0.0 then
    Some (Fault.Numeric { what = "synopsis N'"; value = n_prime })
  else if syn.Synopsis.sample_a.Sample.tuple_count < 0 then
    Some (Fault.Corrupt_synopsis "negative tuple count on side A")
  else if syn.Synopsis.sample_b.Sample.tuple_count < 0 then
    Some (Fault.Corrupt_synopsis "negative tuple count on side B")
  else if Array.exists (fun j -> j < 0) b_to_a then
    Some
      (Fault.Corrupt_synopsis
         "semijoin side references a value absent from the first side")
  else
    match validate_side "side A" a with
    | Some f -> Some f
    | None -> validate_side "side B" b

(* ---------------- construction ---------------- *)

let of_synopsis (syn : Synopsis.t) =
  let a = side_of_sample syn.Synopsis.sample_a in
  let b = side_of_sample syn.Synopsis.sample_b in
  (* Positions of the A values under the {e hashtable's} equality, so a
     dangling B value here is dangling in exactly the cases the
     hashtable-walking estimator considered it dangling. *)
  let a_index = Value.Tbl.create (2 * Array.length a.values) in
  Array.iteri (fun i v -> Value.Tbl.replace a_index v i) a.values;
  let b_to_a =
    Array.map
      (fun v ->
        match Value.Tbl.find_opt a_index v with Some i -> i | None -> -1)
      b.values
  in
  let verdict = validate syn ~a ~b ~b_to_a in
  {
    resolved = syn.Synopsis.resolved;
    n_prime = syn.Synopsis.n_prime;
    tuples_a = Sample.total_tuples syn.Synopsis.sample_a;
    sentries_a = Sample.sentry_count syn.Synopsis.sample_a;
    a;
    b;
    b_to_a;
    verdict;
    dl_memo = Atomic.make empty_memo;
  }
