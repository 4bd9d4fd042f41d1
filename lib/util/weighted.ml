(* Entries are kept sorted by value with strictly positive weights, which
   makes the weighted median a single prefix-sum scan. *)

type t = { values : float array; weights : float array; total : float }

let of_entries entries =
  let entries = List.filter (fun (_, w) -> w > 0.0) entries in
  let arr = Array.of_list entries in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  let values = Array.map fst arr in
  let weights = Array.map snd arr in
  let total = Array.fold_left ( +. ) 0.0 weights in
  { values; weights; total }

let of_pairs pairs =
  List.iter
    (fun (_, w) ->
      if w < 0.0 || Float.is_nan w then invalid_arg "Weighted.of_pairs: negative weight")
    pairs;
  of_entries pairs

let of_arrays ~values ~weights =
  let n = Array.length values in
  if Array.length weights <> n then invalid_arg "Weighted.of_arrays: length mismatch";
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    if weights.(i) < 0.0 || Float.is_nan weights.(i) then
      invalid_arg "Weighted.of_arrays: negative weight";
    pairs := (values.(i), weights.(i)) :: !pairs
  done;
  of_entries !pairs

let is_empty t = Array.length t.values = 0
let total_weight t = t.total
let size t = Array.length t.values

let reweight f t =
  let pairs = ref [] in
  for i = Array.length t.values - 1 downto 0 do
    let w = f t.values.(i) t.weights.(i) in
    if w > 0.0 then pairs := (t.values.(i), w) :: !pairs
  done;
  of_entries !pairs

(* The weighted-median rule: the first of [t.values] whose prefix sum of
   positive [weights] reaches half of [total], else the one at [last] (the
   last entry of positive weight). Entries of other weight are skipped. *)
let median_of t weights ~total ~last =
  let half = total /. 2.0 in
  let acc = ref 0.0 and i = ref 0 and found = ref (-1) in
  while !found < 0 do
    let w = weights.(!i) in
    if w > 0.0 then begin
      acc := !acc +. w;
      if !acc >= half || !i = last then found := !i
    end;
    incr i
  done;
  t.values.(!found)

let median t =
  if is_empty t then invalid_arg "Weighted.median: empty multiset";
  median_of t t.weights ~total:t.total ~last:(size t - 1)

let scaled_median ~factors ~empty t =
  let total = ref 0.0 and last = ref (-1) in
  for i = 0 to size t - 1 do
    let w = t.weights.(i) *. factors.(i) in
    factors.(i) <- w;
    if w > 0.0 then begin
      total := !total +. w;
      last := i
    end
  done;
  if !last < 0 then empty else median_of t factors ~total:!total ~last:!last

let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.values - 1 do
    acc := f t.values.(i) t.weights.(i) !acc
  done;
  !acc

let mean t =
  if is_empty t then invalid_arg "Weighted.mean: empty multiset";
  fold (fun v w acc -> acc +. (v *. w)) t 0.0 /. t.total
