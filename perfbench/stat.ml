let sorted xs =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) xs) in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Nearest rank: the smallest value with at least [q] of the sample at or
   below it. *)
let rank xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let spread xs =
  let m = median xs in
  if m = 0.0 then Float.nan else (quantile xs 0.75 -. quantile xs 0.25) /. m

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

let gmean xs =
  match xs with
  | [] -> Float.nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float (List.length xs))
