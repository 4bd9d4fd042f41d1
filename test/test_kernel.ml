(* The discrete-learning / LP kernel against its reference oracle
   (Kernel_oracle, the pre-rewrite code kept verbatim), plus the two
   properties the rewrite exists for: a hot estimate allocates no large
   block directly in the major heap, and the per-domain buffers are safe
   under concurrent estimates. *)

open Repro_relation
module Prng = Repro_util.Prng
module Weighted = Repro_util.Weighted
module Obs = Repro_obs.Obs
module Simplex = Repro_lp.Simplex
module L1_fit = Repro_lp.L1_fit
module DL = Csdl.Discrete_learning
module Oracle = Kernel_oracle

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* Metric text of a live context, minus the wall-clock span timings: every
   lp.* and dl.* metric must be recorded under the same name and value. *)
let metric_lines obs =
  Option.value ~default:"" (Obs.prometheus obs)
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (contains l "span_seconds"))

(* ------------------------------------------------------------------ *)
(* Discrete learning against the oracle                                *)
(* ------------------------------------------------------------------ *)

let configs =
  [|
    DL.default_config;
    { DL.default_config with linear_grid_points = 30; geometric_ratio = 1.3 };
    { DL.default_config with d = 0.09; e = 0.06 };
  |]

(* Virtual-count arrays of 1-6000 values: integer or fractional counts
   (Eq. 6 ratios), optionally with heavy classes past n^D + 2n^E, and now
   and then a NaN or an all-zero array so the typed faults are compared
   too. 6000 values of mean count ~2.5 put n past 2^12.5, where the LP
   gains its second fingerprint row. *)
let counts_of ~seed ~size ~kind ~heavy =
  let prng = Prng.create seed in
  Array.init size (fun _ ->
      let base = float_of_int (1 + Prng.int prng 4) in
      let c =
        match kind with
        | 0 -> base
        | 1 -> base *. (0.25 +. (2.0 *. Prng.float prng))
        | 2 -> if Prng.int prng 500 = 0 then Float.nan else base
        | _ -> 0.0
      in
      if heavy && kind <> 3 && Prng.int prng 100 = 0 then
        float_of_int (30 + Prng.int prng 3000)
      else c)

let same_model ~probes t o =
  let entries fold h = List.rev (fold (fun x w acc -> (x, w) :: acc) h []) in
  let a = entries Weighted.fold (DL.histogram t)
  and b = entries Oracle.Weighted.fold (Oracle.Discrete_learning.histogram o) in
  List.length a = List.length b
  && List.for_all2 (fun (x, w) (x', w') -> same_float x x' && same_float w w') a b
  && same_float (DL.sample_size t) (Oracle.Discrete_learning.sample_size o)
  && List.for_all
       (fun j ->
         same_float
           (DL.probability_of_count t j)
           (Oracle.Discrete_learning.probability_of_count o j))
       probes

let prop_dl_matches_oracle =
  let gen =
    QCheck.Gen.(
      pair
        (quad (int_bound 1_000_000) (int_range 1 6000) (int_bound 3) bool)
        (int_bound (Array.length configs - 1)))
  in
  let print ((seed, size, kind, heavy), config) =
    Printf.sprintf "seed=%d size=%d kind=%d heavy=%b config=%d" seed size kind
      heavy config
  in
  QCheck.Test.make ~count:80 ~name:"discrete learning bit-identical to oracle"
    (QCheck.make ~print gen)
    (fun ((seed, size, kind, heavy), config) ->
      let config = configs.(config) in
      let counts = counts_of ~seed ~size ~kind ~heavy in
      (* count classes 1-30 plus whatever the sample holds (heavy ones) *)
      let probes =
        List.init 30 (fun k -> float_of_int (k + 1))
        @ Array.to_list (Array.sub counts 0 (min size 40))
      in
      let obs = Obs.create () and oracle_obs = Obs.create () in
      let checked =
        match
          ( DL.learn_checked ~obs ~config counts,
            Oracle.Discrete_learning.learn_checked ~obs:oracle_obs ~config
              counts )
        with
        | Ok t, Ok o -> same_model ~probes t o
        | Error e, Error e' -> compare e e' = 0
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      checked
      && same_model ~probes (DL.learn ~obs ~config counts)
           (Oracle.Discrete_learning.learn ~obs:oracle_obs ~config counts)
      && metric_lines obs = metric_lines oracle_obs)

(* Distinct values (as a learned histogram's are: its grid points are
   strictly increasing and its heavy entries lie past the grid) with
   random weights, scaled by per-entry factors that may zero, negate,
   shrink to subnormal or NaN an entry's weight. Half the cases use small
   integer weights and factors, so a prefix often lands exactly on half
   the total. *)
let prop_scaled_median_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"scaled median bit-identical to reweight then median"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let integral = Prng.int prng 2 = 0 in
      let size = Prng.int prng 40 in
      let value = ref 0.0 in
      let pairs =
        List.init size (fun _ ->
            value := !value +. 1e-3 +. Prng.float prng;
            ( !value,
              if integral then float_of_int (Prng.int prng 4)
              else if Prng.int prng 8 = 0 then 0.0
              else Prng.float prng *. 5.0 ))
      in
      let factor = Hashtbl.create size in
      List.iter
        (fun (x, _) ->
          Hashtbl.replace factor x
            (match Prng.int prng 8 with
            | 0 -> 0.0
            | 1 -> -1.0
            | 2 -> Float.nan
            | 3 -> if integral then 2.0 else 1e-310
            | _ -> if integral then 1.0 else Prng.float prng *. 2.0))
        pairs;
      let t = Weighted.of_pairs pairs and o = Oracle.Weighted.of_pairs pairs in
      (* entry i is the i-th pair of positive weight *)
      let scale x w = w *. Hashtbl.find factor x in
      let factors =
        Array.of_list
          (List.filter_map
             (fun (x, w) -> if w > 0.0 then Some (scale x 1.0) else None)
             pairs)
      in
      let got = Weighted.scaled_median ~factors ~empty:(-1.0) t in
      let want = Oracle.Weighted.reweight scale o in
      if Oracle.Weighted.is_empty want then same_float got (-1.0)
      else same_float got (Oracle.Weighted.median want))

(* ------------------------------------------------------------------ *)
(* Simplex and L1 fits against the oracle                              *)
(* ------------------------------------------------------------------ *)

let same_result a b =
  match (a, b) with
  | ( Simplex.Optimal { objective_value = v; solution = s },
      Simplex.Optimal { objective_value = v'; solution = s' } ) ->
      same_float v v' && same_floats s s'
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded
    ->
      true
  | Simplex.Failed r, Simplex.Failed r' -> String.equal r r'
  | _ -> false

let beale =
  {
    Simplex.objective = [| -0.75; 150.0; -0.02; 6.0 |];
    constraints =
      [
        { Simplex.coefficients = [| 0.25; -60.0; -0.04; 9.0 |]; relation = Le; rhs = 0.0 };
        { Simplex.coefficients = [| 0.5; -90.0; -0.02; 3.0 |]; relation = Le; rhs = 0.0 };
        { Simplex.coefficients = [| 0.0; 0.0; 1.0; 0.0 |]; relation = Le; rhs = 1.0 };
      ];
  }

let coefficient prng =
  match Prng.int prng 4 with
  | 0 -> 0.0
  | 1 -> [| 1.0; -1.0; 2.0; 0.5; -3.0; 7.25 |].(Prng.int prng 6)
  | _ -> (Prng.float prng *. 10.0) -. 5.0

(* Mixed Le/Ge/Eq rows with negative right-hand sides, now and then a
   duplicated (redundant) row, a NaN coefficient or an infinite rhs;
   every tenth case is Beale's cycling LP. *)
let random_problem prng =
  if Prng.int prng 10 = 0 then beale
  else begin
    let n = 1 + Prng.int prng 6 and m = Prng.int prng 7 in
    let row () =
      {
        Simplex.coefficients = Array.init n (fun _ -> coefficient prng);
        relation = [| Simplex.Le; Simplex.Ge; Simplex.Eq |].(Prng.int prng 3);
        rhs = (if Prng.int prng 5 = 0 then 0.0 else coefficient prng *. 2.0);
      }
    in
    let rows = List.init m (fun _ -> row ()) in
    let rows =
      match rows with
      | r :: _ when Prng.int prng 5 = 0 -> r :: rows
      | _ -> rows
    in
    let rows =
      match (rows, Prng.int prng 12) with
      | r :: rest, 0 ->
          let c = Array.copy r.Simplex.coefficients in
          c.(Prng.int prng n) <- Float.nan;
          { r with coefficients = c } :: rest
      | r :: rest, 1 -> { r with rhs = Float.infinity } :: rest
      | _ -> rows
    in
    { Simplex.objective = Array.init n (fun _ -> coefficient prng); constraints = rows }
  end

let random_l1_spec prng =
  let n = 1 + Prng.int prng 40 and m = Prng.int prng 4 in
  {
    L1_fit.design = Array.init m (fun _ -> Array.init n (fun _ -> Prng.float prng));
    target = Array.init m (fun _ -> coefficient prng *. 3.0);
    mass_coefficients = Array.init n (fun _ -> Prng.float prng);
    mass = coefficient prng;
  }

let prop_lp_matches_oracle =
  QCheck.Test.make ~count:600 ~name:"simplex and L1 fit bit-identical to oracle"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let prng = Prng.create seed in
      let problem = random_problem prng in
      let max_iterations =
        if Prng.int prng 4 = 0 then Some (1 + Prng.int prng 5) else None
      in
      let obs = Obs.create () and oracle_obs = Obs.create () in
      let lp_same =
        same_result
          (Simplex.solve ~obs ?max_iterations problem)
          (Oracle.Simplex.solve ~obs:oracle_obs ?max_iterations problem)
      in
      let spec = random_l1_spec prng in
      let l1_same =
        match (L1_fit.fit ~obs spec, Oracle.L1_fit.fit ~obs:oracle_obs spec) with
        | Ok a, Ok b ->
            same_float a.residual b.residual && same_floats a.weights b.weights
        | Error e, Error e' -> e = e'
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      lp_same && l1_same && metric_lines obs = metric_lines oracle_obs)

(* ------------------------------------------------------------------ *)
(* Allocation and concurrency                                          *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

(* 100 join values with 4-12 tuples each on both sides: every per-value
   array of the estimate stays below the 256-word minor-heap limit, while
   the virtual sample (~800 tuples at theta = 1) makes a DL grid of ~440
   points. *)
let table () =
  Table.of_rows schema
    (List.concat
       (List.init 100 (fun v ->
            List.init (4 + (v mod 9)) (fun i -> [| Value.Int v; Value.Int i |]))))

let flat =
  lazy
    (let profile = Csdl.Profile.of_tables (table ()) "k" (table ()) "k" in
     let resolved =
       Csdl.Budget.resolve (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
         ~theta:1.0 profile
     in
     Csdl.Synopsis_flat.of_synopsis
       (Csdl.Synopsis.draw (Prng.create 7) ~profile ~resolved))

let estimate ?(pred_a = Predicate.True) () =
  match Csdl.Estimate.run_checked_flat ~pred_a (Lazy.force flat) with
  | Ok b -> b.Csdl.Estimate.estimate
  | Error fault -> Alcotest.failf "estimate failed: %s" (Csdl.Fault.error_to_string fault)

let test_no_direct_major_allocation () =
  let b =
    match Csdl.Estimate.run_checked_flat (Lazy.force flat) with
    | Ok b -> b
    | Error fault -> Alcotest.failf "estimate failed: %s" (Csdl.Fault.error_to_string fault)
  in
  (* Grid points before the geometric regime: n (n^D + n^E) > 256. *)
  let n = b.Csdl.Estimate.virtual_sample_size in
  Alcotest.(check bool)
    (Printf.sprintf "grid of n = %.0f exceeds 256 points" n)
    true
    (n *. (Float.pow n 0.08 +. Float.pow n 0.05) > 300.0);
  for _ = 1 to 5 do
    ignore (estimate ())
  done;
  let calls = 200 in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to calls do
    ignore (estimate ())
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per call allocated directly in the major heap" direct)
    true (direct < 256.0)

(* Predicates that vary the filtered virtual sample, so consecutive solves
   on one domain need buffers of different sizes. *)
let query i = Predicate.Compare (Predicate.Lt, "attr", Value.Int (1 + (i mod 13)))

let test_concurrent_estimates_match_sequential () =
  let tasks = 500 and domains = 4 in
  let sequential = Array.init tasks (fun i -> estimate ~pred_a:(query i) ()) in
  let concurrent = Array.make tasks Float.nan in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let i = ref d in
            while !i < tasks do
              concurrent.(!i) <- estimate ~pred_a:(query !i) ();
              i := !i + domains
            done))
  in
  List.iter Domain.join workers;
  Array.iteri
    (fun i v ->
      if not (same_float v concurrent.(i)) then
        Alcotest.failf "task %d: sequential %h, concurrent %h" i v concurrent.(i))
    sequential

let () =
  Alcotest.run "kernel"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dl_matches_oracle;
            prop_scaled_median_matches_oracle;
            prop_lp_matches_oracle;
          ] );
      ( "buffers",
        [
          Alcotest.test_case "no direct major allocation per estimate" `Quick
            test_no_direct_major_allocation;
          Alcotest.test_case "concurrent estimates match sequential" `Quick
            test_concurrent_estimates_match_sequential;
        ] );
    ]
