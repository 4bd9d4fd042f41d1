module Weighted = Repro_util.Weighted
module Math_ex = Repro_util.Math_ex
module Scratch = Repro_util.Scratch
module Fingerprint = Repro_stats.Fingerprint
module Obs = Repro_obs.Obs

type config = {
  d : float;
  e : float;
  linear_grid_points : int;
  geometric_ratio : float;
}

let default_config =
  { d = 0.08; e = 0.05; linear_grid_points = 400; geometric_ratio = 1.05 }

(* [lambda] (= n x) and [log_lambda] list the histogram entries in
   ascending value order; [scratch] holds one count class's Poisson
   factors. *)
type t = {
  n : float;
  histogram : Weighted.t;
  lambda : float array;
  log_lambda : float array;
  scratch : float array;
  empirical_cutoff : float;  (* ln^2 n: counts at or above use j/n *)
  cache : (int, float) Hashtbl.t;
}

let sample_size t = t.n
let histogram t = t.histogram
let estimated_distinct t = Weighted.total_weight t.histogram

(* Poisson probability poi(lambda, k) as [Math_ex.poisson_pmf] computes it
   for [k >= 1], from a precomputed [log lambda] and [log k!]. *)
let[@inline] poisson ~fk ~log_fact ~lambda ~log_lambda =
  exp ((fk *. log_lambda) -. lambda -. log_fact)

(* This domain's grid buffer, reused across learns. *)
type grid = { mutable points : float array }

let grid_scratch = Scratch.make (fun () -> { points = [||] })

(* The probability grid X = {1/n^2, 2/n^2, ...} up to (n^D + n^E)/n, with
   the tail geometrically coarsened to bound the LP size: the first
   [linear_grid_points] points step by 1/n^2, later ones by the ratio.
   Written into [g.points]; returns the number of points. *)
let build_grid g config ~n ~x_max =
  let step = 1.0 /. (n *. n) in
  let points = ref g.points and len = ref 0 in
  let room () = points := Scratch.grow !points (!len + 1) 0.0 in
  let x = ref step in
  while !x <= x_max do
    room ();
    !points.(!len) <- !x;
    incr len;
    x :=
      if !len <= config.linear_grid_points then !x +. step
      else !x *. config.geometric_ratio
  done;
  (* make sure the top of the range is represented *)
  if !len = 0 || !points.(!len - 1) < x_max *. 0.99 then begin
    room ();
    !points.(!len) <- x_max;
    incr len
  end;
  g.points <- !points;
  !len

let of_histogram n histogram ~empirical_cutoff ~cache_size =
  let size = Weighted.size histogram in
  let lambda = Array.make size 0.0 and log_lambda = Array.make size 0.0 in
  ignore
    (Weighted.fold
       (fun x _ i ->
         lambda.(i) <- n *. x;
         log_lambda.(i) <- log lambda.(i);
         i + 1)
       histogram 0);
  {
    n;
    histogram;
    lambda;
    log_lambda;
    scratch = Array.make size 0.0;
    empirical_cutoff;
    cache = Hashtbl.create cache_size;
  }

let degenerate n =
  of_histogram n (Weighted.of_pairs []) ~empirical_cutoff:0.0 ~cache_size:4

(* [None] for a usable config, else what is wrong with it. A ratio <= 1
   would never carry the geometric regime past x_max. *)
let config_error config =
  if
    not
      (0.0 < config.d /. 2.0
      && config.d /. 2.0 < config.e
      && config.e < config.d && config.d < 0.1)
  then Some "need 0 < D/2 < E < D < 0.1"
  else if
    not (Float.is_finite config.geometric_ratio && config.geometric_ratio > 1.0)
  then Some "need a finite geometric_ratio > 1"
  else None

(* Algorithm 1 on a validated, non-empty fingerprint. When the LP layer
   fails, returns the empirical-fallback shape (count classes use j/n)
   together with the typed LP error so checked callers can refuse it. *)
let learn_core ?(obs = Obs.null) config fingerprint n =
  Obs.Span.with_ obs ~name:"dl.learn" @@ fun () ->
  Obs.observe obs "dl.virtual_sample.size" n;
  let n_d = Float.pow n config.d and n_e = Float.pow n config.e in
  let lp_max_i = max 1 (int_of_float (Float.floor n_d)) in
  let heavy_threshold = n_d +. (2.0 *. n_e) in
  (* Heavy counts keep their empirical probability (lines 6, 12). *)
  let heavy_entries =
    Fingerprint.fold
      (fun i mass acc ->
        if float_of_int i > heavy_threshold then
          (float_of_int i /. n, mass) :: acc
        else acc)
      fingerprint []
  in
  let heavy_mass =
    List.fold_left (fun acc (x, mass) -> acc +. (x *. mass)) 0.0 heavy_entries
  in
  let mass = Float.max 0.0 (1.0 -. heavy_mass) in
  let x_max = (n_d +. n_e) /. n in
  let target =
    Array.init lp_max_i (fun row -> Fingerprint.get fingerprint (row + 1))
  in
  let lp_entries, lp_error =
    Scratch.with_ grid_scratch @@ fun g ->
    let columns = build_grid g config ~n ~x_max in
    let grid = g.points in
    (* Design row [row]: poi(n x, row + 1) over the grid, written in place. *)
    let design row tab off =
      let k = row + 1 in
      let fk = float_of_int k and log_fact = Math_ex.log_factorial k in
      for j = 0 to columns - 1 do
        let lambda = n *. grid.(j) in
        tab.(off + j) <- poisson ~fk ~log_fact ~lambda ~log_lambda:(log lambda)
      done
    in
    Repro_lp.L1_fit.fit_with ~obs ~columns ~design ~target
      ~mass_coefficients:grid ~mass
    @@ function
    | Ok { weights; _ } ->
        let entries = ref [] in
        for j = 0 to columns - 1 do
          if weights.(j) > 0.0 then entries := (grid.(j), weights.(j)) :: !entries
        done;
        (!entries, None)
    | Error e ->
        (* Cannot happen for a non-empty grid with mass >= 0 and finite
           counts, but fall back to an empty shape rather than crash:
           count classes then use their empirical probability. *)
        Obs.count obs "dl.lp.failures" 1;
        ([], Some e)
  in
  let histogram = Weighted.of_pairs (lp_entries @ heavy_entries) in
  let log_n = log n in
  let empirical_cutoff = if log_n <= 0.0 then 0.0 else log_n *. log_n in
  (of_histogram n histogram ~empirical_cutoff ~cache_size:16, lp_error)

let learn ?(obs = Obs.null) ?(config = default_config) counts =
  Option.iter
    (fun problem -> invalid_arg ("Discrete_learning.learn: " ^ problem))
    (config_error config);
  let fingerprint =
    Fingerprint.of_float_counts
      (Seq.filter Float.is_finite (Array.to_seq counts))
  in
  let n = Fingerprint.sample_size fingerprint in
  if n <= 0.0 then degenerate 0.0
  else fst (learn_core ~obs config fingerprint n)

let check_config config =
  match config_error config with
  | Some problem -> Error (Fault.Bad_input ("discrete learning config: " ^ problem))
  | None -> Ok ()

let learn_checked ?(obs = Obs.null) ?(config = default_config) counts =
  match check_config config with
  | Error fault -> Error fault
  | Ok () -> (
    match Array.find_opt (fun c -> not (Float.is_finite c)) counts with
    | Some bad ->
        Error (Fault.Numeric { what = "discrete-learning count"; value = bad })
    | None ->
        let fingerprint = Fingerprint.of_float_counts (Array.to_seq counts) in
        let n = Fingerprint.sample_size fingerprint in
        if n <= 0.0 then
          Error (Fault.Bad_input "discrete learning: empty or all-zero counts")
        else begin
          match learn_core ~obs config fingerprint n with
          | t, None -> Ok t
          | _, Some lp_error -> Error (Fault.of_l1_error lp_error)
        end)

(* The poi(n x, k)-reweighted median of the histogram (Algorithm 1,
   lines 7-10); [empirical] when no entry keeps a positive weight. *)
let reweighted_median t k ~empirical =
  let fk = float_of_int k and log_fact = Math_ex.log_factorial k in
  for i = 0 to Array.length t.lambda - 1 do
    t.scratch.(i) <-
      poisson ~fk ~log_fact ~lambda:t.lambda.(i) ~log_lambda:t.log_lambda.(i)
  done;
  Weighted.scaled_median ~factors:t.scratch ~empty:empirical t.histogram

let probability_of_count t j =
  if j <= 0.0 || t.n <= 0.0 then 0.0
  else
    let count_class = max 1 (int_of_float (Float.round j)) in
    match Hashtbl.find_opt t.cache count_class with
    | Some p -> p
    | None ->
        let empirical = float_of_int count_class /. t.n in
        let p =
          if float_of_int count_class >= t.empirical_cutoff then empirical
          else reweighted_median t count_class ~empirical
        in
        Hashtbl.add t.cache count_class p;
        p
