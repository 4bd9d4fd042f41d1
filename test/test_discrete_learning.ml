(* Tests for the discrete-learning estimator (Algorithm 1). *)

module DL = Csdl.Discrete_learning
module Prng = Repro_util.Prng

(* Simulate a sample of size ~n from a distribution given as
   (probability, multiplicity-of-values) pairs: each domain value's count
   is Binomial(n, p). Returns per-value counts. *)
let simulate prng ~n distribution =
  List.concat_map
    (fun (p, values) ->
      List.init values (fun _ -> float_of_int (Prng.binomial prng n p)))
    distribution
  |> Array.of_list

let test_learn_empty () =
  let t = DL.learn [||] in
  Alcotest.(check (float 0.0)) "n = 0" 0.0 (DL.sample_size t);
  Alcotest.(check (float 0.0)) "probability 0" 0.0 (DL.probability_of_count t 3.0)

let test_learn_all_zero_counts () =
  let t = DL.learn [| 0.0; 0.0 |] in
  Alcotest.(check (float 0.0)) "n = 0" 0.0 (DL.sample_size t)

let test_sample_size () =
  let t = DL.learn [| 2.0; 3.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "n = sum" 6.0 (DL.sample_size t)

let test_probability_of_nonpositive_count () =
  let t = DL.learn [| 2.0; 3.0 |] in
  Alcotest.(check (float 0.0)) "count 0" 0.0 (DL.probability_of_count t 0.0);
  Alcotest.(check (float 0.0)) "negative" 0.0 (DL.probability_of_count t (-1.0))

let test_config_validation () =
  Alcotest.check_raises "bad D/E"
    (Invalid_argument "Discrete_learning.learn: need 0 < D/2 < E < D < 0.1")
    (fun () ->
      ignore
        (DL.learn
           ~config:{ DL.default_config with d = 0.05; e = 0.08 }
           [| 1.0 |]))

let test_geometric_ratio_validation () =
  (* A ratio <= 1 or NaN never carries the geometric grid past x_max, so
     it is rejected up front instead of looping forever: 1000 unit counts
     need more than the 400 linear points to reach x_max. *)
  let counts = Array.make 1000 1.0 in
  List.iter
    (fun ratio ->
      let config = { DL.default_config with geometric_ratio = ratio } in
      (match DL.learn_checked ~config counts with
      | Error (Csdl.Fault.Bad_input _) -> ()
      | Error e ->
          Alcotest.failf "ratio %g: wrong fault %s" ratio
            (Csdl.Fault.error_to_string e)
      | Ok _ -> Alcotest.failf "learn_checked accepted ratio %g" ratio);
      match DL.learn ~config counts with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "learn accepted ratio %g" ratio)
    [ 1.0; 0.9; Float.nan; Float.infinity ]

let test_heavy_counts_use_empirical () =
  (* A value appearing more often than ln^2 n gets probability j/n. *)
  let counts = Array.append [| 500.0 |] (Array.make 500 1.0) in
  let t = DL.learn counts in
  (* n = 1000; ln^2 1000 ~ 47.7; 500 >> that *)
  Alcotest.(check (float 1e-9)) "empirical for heavy" 0.5
    (DL.probability_of_count t 500.0)

let test_uniform_heavyish_recovery () =
  (* 100 values with probability 0.01 each: counts ~ Bin(1000, 0.01).
     The median estimated probability over the count classes should be
     near 0.01. *)
  let prng = Prng.create 17 in
  let counts = simulate prng ~n:1000 [ (0.01, 100) ] in
  let t = DL.learn counts in
  let estimates =
    Array.to_list counts
    |> List.filter (fun c -> c > 0.0)
    |> List.map (fun c -> DL.probability_of_count t c)
  in
  let median = Repro_util.Summary.median (Array.of_list estimates) in
  Alcotest.(check bool)
    (Printf.sprintf "median estimate %.5f near 0.01" median)
    true
    (median > 0.004 && median < 0.025)

let test_rare_values_lp_path () =
  (* 10 000 values with probability 1e-4: counts are mostly 0/1. The LP
     must place the F_1 mass near x = 1e-4 rather than at the empirical
     1/n = 1e-3. *)
  let prng = Prng.create 23 in
  let counts = simulate prng ~n:1000 [ (0.0001, 10_000) ] in
  let t = DL.learn counts in
  let estimate = DL.probability_of_count t 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "singleton estimate %.6f well below empirical 1e-3" estimate)
    true
    (estimate < 6e-4);
  Alcotest.(check bool) "but positive" true (estimate > 1e-6)

let test_rare_values_support_estimate () =
  (* Same setting: the learned histogram should know there are far more
     domain values than the ~950 observed. *)
  let prng = Prng.create 29 in
  let counts = simulate prng ~n:1000 [ (0.0001, 10_000) ] in
  let t = DL.learn counts in
  let support = DL.estimated_distinct t in
  Alcotest.(check bool)
    (Printf.sprintf "support %.0f far above observed" support)
    true
    (support > 2_000.0)

let test_two_scale_mixture () =
  (* A mixture: 5 heavy values at 0.1 and many light ones sharing the rest.
     Heavy counts (~100 over n=1000) must estimate near 0.1. *)
  let prng = Prng.create 31 in
  let counts =
    simulate prng ~n:1000 [ (0.1, 5); (0.0005, 1000) ]
  in
  let t = DL.learn counts in
  let heavy_estimate = DL.probability_of_count t 100.0 in
  Alcotest.(check bool)
    (Printf.sprintf "heavy %.4f near 0.1" heavy_estimate)
    true
    (Float.abs (heavy_estimate -. 0.1) < 0.03)

let test_fractional_counts_accepted () =
  let t = DL.learn [| 1.5; 2.25; 0.75 |] in
  Alcotest.(check bool) "positive estimate" true (DL.probability_of_count t 2.0 > 0.0);
  Alcotest.(check (float 1e-9)) "n" 4.5 (DL.sample_size t)

let test_probability_memoised_consistent () =
  let prng = Prng.create 37 in
  let counts = simulate prng ~n:500 [ (0.01, 80) ] in
  let t = DL.learn counts in
  let first = DL.probability_of_count t 5.0 in
  let second = DL.probability_of_count t 5.0 in
  Alcotest.(check (float 0.0)) "memoised identical" first second;
  (* count classes round: 5.4 ~ 5 *)
  Alcotest.(check (float 0.0)) "rounding to class" first
    (DL.probability_of_count t 5.4)

let test_histogram_mass_reasonable () =
  let prng = Prng.create 41 in
  let counts = simulate prng ~n:1000 [ (0.01, 100) ] in
  let t = DL.learn counts in
  let hist = DL.histogram t in
  let mass =
    Repro_util.Weighted.fold (fun x w acc -> acc +. (x *. w)) hist 0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "total probability mass %.3f near 1" mass)
    true
    (mass > 0.7 && mass <= 1.3)

let test_single_value_sample () =
  (* One value seen n times: must estimate probability ~1. *)
  let t = DL.learn [| 200.0 |] in
  Alcotest.(check (float 1e-9)) "probability 1" 1.0 (DL.probability_of_count t 200.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_probabilities_in_unit_interval =
  QCheck.Test.make ~count:50 ~name:"estimated probabilities in [0,1]"
    QCheck.(pair (int_range 1 500) (int_range 1 50))
    (fun (seed, distinct) ->
      let prng = Prng.create seed in
      let counts =
        Array.init distinct (fun _ -> float_of_int (1 + Prng.int prng 20))
      in
      let t = DL.learn counts in
      Array.for_all
        (fun c ->
          let p = DL.probability_of_count t c in
          p >= 0.0 && p <= 1.0 +. 1e-9)
        counts)

let prop_larger_count_not_smaller_probability =
  (* Count classes are served by Poisson-weighted medians of one shared
     histogram, which is monotone in the count. *)
  QCheck.Test.make ~count:30 ~name:"probability monotone in count class"
    QCheck.(int_range 1 500)
    (fun seed ->
      let prng = Prng.create seed in
      let counts =
        Array.init 60 (fun _ -> float_of_int (1 + Prng.int prng 30))
      in
      let t = DL.learn counts in
      let probe = [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ] in
      let rec check = function
        | a :: b :: rest ->
            DL.probability_of_count t a <= DL.probability_of_count t b +. 1e-9
            && check (b :: rest)
        | _ -> true
      in
      check probe)

let () =
  Alcotest.run "csdl_discrete_learning"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_learn_empty;
          Alcotest.test_case "all-zero counts" `Quick test_learn_all_zero_counts;
          Alcotest.test_case "sample size" `Quick test_sample_size;
          Alcotest.test_case "nonpositive count" `Quick test_probability_of_nonpositive_count;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "geometric ratio validation" `Quick
            test_geometric_ratio_validation;
          Alcotest.test_case "fractional counts" `Quick test_fractional_counts_accepted;
          Alcotest.test_case "memoisation" `Quick test_probability_memoised_consistent;
          Alcotest.test_case "single value" `Quick test_single_value_sample;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "heavy empirical" `Quick test_heavy_counts_use_empirical;
          Alcotest.test_case "uniform 0.01" `Quick test_uniform_heavyish_recovery;
          Alcotest.test_case "rare values (LP path)" `Quick test_rare_values_lp_path;
          Alcotest.test_case "support estimate" `Quick test_rare_values_support_estimate;
          Alcotest.test_case "two-scale mixture" `Quick test_two_scale_mixture;
          Alcotest.test_case "histogram mass" `Quick test_histogram_mass_reasonable;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_probabilities_in_unit_interval;
            prop_larger_count_not_smaller_probability;
          ] );
    ]
