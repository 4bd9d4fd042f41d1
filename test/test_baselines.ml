(* Tests for the related-work baseline estimators. *)

open Repro_relation
module Prng = Repro_util.Prng
open Repro_baselines

let schema =
  Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  let rows =
    List.concat_map
      (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
      counts
  in
  Table.of_rows schema rows

let profile_of ca cb =
  Csdl.Profile.of_tables (table_of_counts ca) "k" (table_of_counts cb) "k"

let counts_a = [ (1, 12); (2, 7); (3, 20); (4, 3); (7, 9) ]
let counts_b = [ (1, 5); (2, 16); (3, 4); (5, 8); (7, 2) ]
let profile_m2m = lazy (profile_of counts_a counts_b)
let truth_m2m = float_of_int ((12 * 5) + (7 * 16) + (20 * 4) + (9 * 2))

let pk_counts = List.init 40 (fun i -> (i, 1))
(* small multiplicities so that theta = 1 affords the 2-tuples-per-row
   join synopsis exactly (see the pk predicate test) *)
let fk_counts = List.init 25 (fun i -> (i, 1 + (i mod 2)))
let profile_pkfk = lazy (profile_of fk_counts pk_counts)
let truth_pkfk =
  float_of_int (List.fold_left (fun acc (v, m) -> if v < 40 then acc + m else acc) 0 fk_counts)

let mean_of f runs seed =
  let prng = Prng.create seed in
  let total = ref 0.0 in
  for _ = 1 to runs do
    total := !total +. f prng
  done;
  !total /. float_of_int runs

let check_unbiased ~label ~truth mean tolerance =
  Alcotest.(check bool)
    (Printf.sprintf "%s mean %.1f within %.0f%% of %.1f" label mean
       (100.0 *. tolerance) truth)
    true
    (Float.abs (mean -. truth) < tolerance *. truth)

(* ------------------------------------------------------------------ *)
(* Independent sampling                                                *)
(* ------------------------------------------------------------------ *)

let test_independent_unbiased () =
  let t = Independent.prepare ~theta:0.4 (Lazy.force profile_m2m) in
  let mean = mean_of (fun prng -> Independent.estimate_once t prng) 4000 3 in
  check_unbiased ~label:"independent" ~truth:truth_m2m mean 0.08

let test_independent_exact_at_theta_one () =
  let t = Independent.prepare ~theta:1.0 (Lazy.force profile_m2m) in
  Alcotest.(check (float 1e-9)) "exact" truth_m2m
    (Independent.estimate_once t (Prng.create 4))

let test_independent_with_predicate () =
  let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 2) in
  let profile = Lazy.force profile_m2m in
  let truth =
    float_of_int
      (Join.pair_count
         (Join.filtered profile.Csdl.Profile.a.Csdl.Profile.table "k" pred)
         (Join.unfiltered profile.Csdl.Profile.b.Csdl.Profile.table "k"))
  in
  let t = Independent.prepare ~theta:1.0 profile in
  Alcotest.(check (float 1e-9)) "filtered exact" truth
    (Independent.estimate ~pred_a:pred t (Independent.draw t (Prng.create 5)))

let test_independent_high_variance_on_sparse_join () =
  (* The motivating failure: a PK-FK-ish join at a small rate usually
     produces an empty joined sample. *)
  let t = Independent.prepare ~theta:0.05 (Lazy.force profile_pkfk) in
  let prng = Prng.create 6 in
  let zeroes = ref 0 in
  for _ = 1 to 100 do
    if Independent.estimate_once t prng = 0.0 then incr zeroes
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/100 runs estimate zero" !zeroes)
    true (!zeroes > 50)

(* ------------------------------------------------------------------ *)
(* End-biased sampling                                                 *)
(* ------------------------------------------------------------------ *)

let test_end_biased_unbiased () =
  let t = End_biased.prepare ~theta:0.3 (Lazy.force profile_m2m) in
  let mean = mean_of (fun prng -> End_biased.estimate_once t prng) 4000 7 in
  check_unbiased ~label:"end-biased" ~truth:truth_m2m mean 0.08

let test_end_biased_exact_at_theta_one () =
  let t = End_biased.prepare ~theta:1.0 (Lazy.force profile_m2m) in
  Alcotest.(check (float 1e-6)) "exact" truth_m2m
    (End_biased.estimate_once t (Prng.create 8))

let test_end_biased_predicates_exact_per_value () =
  (* For kept values the tuple sets are complete, so a predicate's effect
     is measured exactly: at theta=1 the filtered estimate is exact. *)
  let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
  let profile = Lazy.force profile_m2m in
  let truth =
    float_of_int
      (Join.pair_count
         (Join.filtered profile.Csdl.Profile.a.Csdl.Profile.table "k" pred)
         (Join.unfiltered profile.Csdl.Profile.b.Csdl.Profile.table "k"))
  in
  let t = End_biased.prepare ~theta:1.0 profile in
  Alcotest.(check (float 1e-6)) "filtered exact" truth
    (End_biased.estimate ~pred_a:pred t (End_biased.draw t (Prng.create 9)))

let test_end_biased_sample_size_near_budget () =
  let profile = Lazy.force profile_m2m in
  let theta = 0.4 in
  let t = End_biased.prepare ~theta profile in
  let prng = Prng.create 10 in
  let runs = 400 in
  let total = ref 0 in
  for _ = 1 to runs do
    total := !total + End_biased.synopsis_tuples (End_biased.draw t prng)
  done;
  let mean = float_of_int !total /. float_of_int runs in
  let budget = theta *. float_of_int profile.Csdl.Profile.total_rows in
  (* only shared values are materialised, so the mean sits below budget
     but within it up to the non-shared mass *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f <= ~1.2x budget %.1f" mean budget)
    true
    (mean < 1.2 *. budget)

(* ------------------------------------------------------------------ *)
(* Wander join                                                         *)
(* ------------------------------------------------------------------ *)

let test_wander_unbiased () =
  let t = Wander.prepare ~walks:50 (Lazy.force profile_m2m) in
  let mean = mean_of (fun prng -> Wander.estimate t prng) 3000 11 in
  check_unbiased ~label:"wander" ~truth:truth_m2m mean 0.08

let test_wander_with_predicates () =
  let pred_a = Predicate.Compare (Predicate.Lt, "attr", Value.Int 5) in
  let pred_b = Predicate.Compare (Predicate.Lt, "attr", Value.Int 4) in
  let profile = Lazy.force profile_m2m in
  let truth =
    float_of_int
      (Join.pair_count
         (Join.filtered profile.Csdl.Profile.a.Csdl.Profile.table "k" pred_a)
         (Join.filtered profile.Csdl.Profile.b.Csdl.Profile.table "k" pred_b))
  in
  let t = Wander.prepare ~walks:80 profile in
  let mean = mean_of (fun prng -> Wander.estimate t ~pred_a ~pred_b prng) 3000 12 in
  check_unbiased ~label:"wander filtered" ~truth mean 0.1

let test_wander_empty_table () =
  let empty = Table.of_rows schema [] in
  let profile = Csdl.Profile.of_tables empty "k" (table_of_counts counts_b) "k" in
  let t = Wander.prepare ~walks:10 profile in
  Alcotest.(check (float 0.0)) "empty A" 0.0 (Wander.estimate t (Prng.create 13))

let test_wander_rejects_zero_walks () =
  Alcotest.check_raises "walks >= 1"
    (Invalid_argument "Wander.prepare: walks must be >= 1") (fun () ->
      ignore (Wander.prepare ~walks:0 (Lazy.force profile_m2m)))

(* ------------------------------------------------------------------ *)
(* Join synopses                                                       *)
(* ------------------------------------------------------------------ *)

let test_join_synopsis_rejects_m2m () =
  match Join_synopsis.prepare ~theta:0.2 (Lazy.force profile_m2m) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "m2m join must be rejected"

let test_join_synopsis_unbiased () =
  match Join_synopsis.prepare ~theta:0.5 (Lazy.force profile_pkfk) with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check bool) "fk side detected as left" true
        (Join_synopsis.fk_is_left t);
      let mean =
        mean_of (fun prng -> Join_synopsis.estimate_once t prng) 3000 14
      in
      check_unbiased ~label:"join synopsis" ~truth:truth_pkfk mean 0.06

let test_join_synopsis_pk_predicate () =
  match Join_synopsis.prepare ~theta:1.0 (Lazy.force profile_pkfk) with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let pred_pk = Predicate.Compare (Predicate.Lt, "k", Value.Int 10) in
      let profile = Lazy.force profile_pkfk in
      let truth =
        float_of_int
          (Join.pair_count
             (Join.unfiltered profile.Csdl.Profile.a.Csdl.Profile.table "k")
             (Join.filtered profile.Csdl.Profile.b.Csdl.Profile.table "k" pred_pk))
      in
      Alcotest.(check (float 1e-6)) "filtered exact at theta=1" truth
        (Join_synopsis.estimate ~pred_pk t
           (Join_synopsis.draw t (Prng.create 15)))

(* ------------------------------------------------------------------ *)
(* AGMS sketches                                                       *)
(* ------------------------------------------------------------------ *)

let test_agms_unbiased_across_plans () =
  (* Each plan is one random draw; averaging estimates across independent
     plans must approach the truth. *)
  let profile = Lazy.force profile_m2m in
  let total = ref 0.0 in
  let plans = 600 in
  for seed = 1 to plans do
    let plan = Agms.plan ~depth:1 ~theta:0.5 profile ~seed in
    total := !total +. Agms.estimate_profile plan profile
  done;
  let mean = !total /. float_of_int plans in
  check_unbiased ~label:"AGMS" ~truth:truth_m2m mean 0.1

let test_agms_median_accuracy () =
  let profile = Lazy.force profile_m2m in
  let qerrors =
    Array.init 40 (fun seed ->
        let plan = Agms.plan ~depth:5 ~theta:0.8 profile ~seed in
        Repro_stats.Qerror.compute ~truth:truth_m2m
          ~estimate:(Agms.estimate_profile plan profile))
  in
  let median = Repro_util.Summary.median qerrors in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f < 2" median)
    true (median < 2.0)

let test_agms_plan_mismatch_rejected () =
  let profile = Lazy.force profile_m2m in
  let plan1 = Agms.plan ~theta:0.5 profile ~seed:1 in
  let plan2 = Agms.plan ~theta:0.5 profile ~seed:2 in
  let a = profile.Csdl.Profile.a in
  let sk1 = Agms.sketch_side plan1 a.Csdl.Profile.table "k" in
  let sk2 = Agms.sketch_side plan2 a.Csdl.Profile.table "k" in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Agms.estimate: sketches from different plans")
    (fun () -> ignore (Agms.estimate sk1 sk2))

let test_agms_self_join_positive () =
  (* sketch dotted with itself estimates the self-join size: always > 0 *)
  let profile = Lazy.force profile_m2m in
  let plan = Agms.plan ~theta:0.5 profile ~seed:3 in
  let a = profile.Csdl.Profile.a in
  let sk = Agms.sketch_side plan a.Csdl.Profile.table "k" in
  Alcotest.(check bool) "self join positive" true (Agms.estimate sk sk > 0.0)

let test_agms_budget_sizing () =
  let profile = Lazy.force profile_m2m in
  let plan = Agms.plan ~depth:5 ~theta:0.5 profile ~seed:4 in
  Alcotest.(check int) "depth" 5 (Agms.depth plan);
  let budget = 0.5 *. float_of_int profile.Csdl.Profile.total_rows in
  Alcotest.(check bool) "width*depth <= budget" true
    (float_of_int (Agms.width plan * Agms.depth plan) <= budget +. 5.0)

(* ------------------------------------------------------------------ *)
(* Equi-depth histograms                                               *)
(* ------------------------------------------------------------------ *)

let test_histogram_build_counts () =
  let t = table_of_counts counts_a in
  let h = Histogram.build ~buckets:3 t "k" in
  Alcotest.(check int) "rows covered" (Table.cardinality t) (Histogram.row_count h);
  Alcotest.(check bool) "buckets bounded" true (Histogram.bucket_count h <= 5)

let test_histogram_single_bucket_estimate () =
  (* one bucket per side: the containment formula in closed form *)
  let ta = table_of_counts [ (1, 10) ] and tb = table_of_counts [ (1, 4) ] in
  let ha = Histogram.build ~buckets:1 ta "k" in
  let hb = Histogram.build ~buckets:1 tb "k" in
  Alcotest.(check (float 1e-6)) "exact on single value" 40.0
    (Histogram.estimate_join ha hb)

let test_histogram_uniform_accuracy () =
  (* uniform data is the histogram's best case: estimate close to truth *)
  let counts = List.init 50 (fun i -> (i, 10)) in
  let ta = table_of_counts counts and tb = table_of_counts counts in
  let truth = float_of_int (Join.pair_count (Join.unfiltered ta "k") (Join.unfiltered tb "k")) in
  let ha = Histogram.build ~buckets:8 ta "k" in
  let hb = Histogram.build ~buckets:8 tb "k" in
  let estimate = Histogram.estimate_join ha hb in
  let q = Repro_stats.Qerror.compute ~truth ~estimate in
  Alcotest.(check bool) (Printf.sprintf "q-error %.2f < 1.5" q) true (q < 1.5)

let test_histogram_skew_degrades () =
  (* skew *inside* a bucket breaks the uniform-frequency assumption; with
     enough buckets equi-depth isolates the heavy value and recovers *)
  let skewed = (0, 100) :: List.init 49 (fun i -> (i + 1, 2)) in
  let ta = table_of_counts skewed and tb = table_of_counts skewed in
  let truth = float_of_int (Join.pair_count (Join.unfiltered ta "k") (Join.unfiltered tb "k")) in
  let q buckets =
    let ha = Histogram.build ~buckets ta "k" in
    let hb = Histogram.build ~buckets tb "k" in
    Repro_stats.Qerror.compute ~truth ~estimate:(Histogram.estimate_join ha hb)
  in
  let coarse = q 1 and fine = q 16 in
  Alcotest.(check bool)
    (Printf.sprintf "coarse %.2f > 1.5 under in-bucket skew" coarse)
    true (coarse > 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "fine %.2f < coarse %.2f" fine coarse)
    true (fine < coarse)

let test_histogram_range_restriction () =
  let counts = List.init 20 (fun i -> (i, 5)) in
  let ta = table_of_counts counts and tb = table_of_counts counts in
  let ha = Histogram.build ~buckets:20 ta "k" in
  let hb = Histogram.build ~buckets:20 tb "k" in
  let full = Histogram.estimate_join ha hb in
  let half =
    Histogram.estimate_join_range ~high_a:(Value.Int 9) ha hb
  in
  Alcotest.(check bool)
    (Printf.sprintf "restricted %.0f ~ half of %.0f" half full)
    true
    (half > 0.3 *. full && half < 0.7 *. full)

let test_histogram_plan_buckets () =
  let profile = Lazy.force profile_m2m in
  let buckets = Histogram.plan_buckets ~theta:0.5 profile in
  Alcotest.(check bool) "positive" true (buckets >= 1)

(* ------------------------------------------------------------------ *)
(* Estimator_intf adapters                                             *)
(* ------------------------------------------------------------------ *)

(* The unified interface the bake-off drives. Exactness at theta = 1 and
   correct handling of the degenerate grids (empty join, all-filtered
   predicates) must hold for every adapter, robustly across seeds. *)

let pred_none = Predicate.True
let pred_reject_all = Predicate.Compare (Predicate.Lt, "attr", Value.Int (-1))

let counts_disjoint_a = [ (1, 3); (2, 2) ]
let counts_disjoint_b = [ (5, 4); (6, 1) ]
let profile_empty_join = lazy (profile_of counts_disjoint_a counts_disjoint_b)

let seeds = [ 1; 2; 3; 4; 5 ]

let check_exact_each_seed ~label ~truth (est : Estimator_intf.t) =
  List.iter
    (fun seed ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%s exact (seed %d)" label seed)
        truth
        (est.Estimator_intf.estimate (Prng.create seed)))
    seeds

let test_intf_exact_at_theta_one () =
  let profile = Lazy.force profile_m2m in
  (* the CS2L spec degenerates to enumeration at theta = 1; the Opt
     default picks a discrete-learning variant whose level allocation
     keeps some per-value rates below 1 even then, so it is only
     unbiased, not exact (see the seed-robust means test) *)
  let adapters =
    [
      Estimator_intf.csdl ~spec:Csdl.Spec.cs2l ~theta:1.0 ~pred_a:pred_none
        ~pred_b:pred_none profile;
      Estimator_intf.independent ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
        profile;
      Estimator_intf.end_biased ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
        profile;
    ]
  in
  List.iter
    (fun est ->
      check_exact_each_seed ~label:est.Estimator_intf.name ~truth:truth_m2m est)
    adapters

let test_intf_empty_join () =
  let profile = Lazy.force profile_empty_join in
  let adapters =
    [
      Estimator_intf.csdl ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none profile;
      Estimator_intf.independent ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
        profile;
      Estimator_intf.end_biased ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
        profile;
      Estimator_intf.wander ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
        profile;
    ]
  in
  List.iter
    (fun est ->
      check_exact_each_seed ~label:est.Estimator_intf.name ~truth:0.0 est)
    adapters;
  (* the independence prior is sampling-free and cannot see disjointness:
     it reports the closed-form |A||B|/max(d_A, d_B), not zero *)
  let prior = Estimator_intf.independence_prior profile in
  Alcotest.(check (float 1e-9)) "prior formula" (5.0 *. 5.0 /. 2.0)
    (prior.Estimator_intf.estimate (Prng.create 1))

let test_intf_all_filtered () =
  let profile = Lazy.force profile_m2m in
  let adapters =
    [
      Estimator_intf.csdl ~theta:1.0 ~pred_a:pred_reject_all
        ~pred_b:pred_none profile;
      Estimator_intf.independent ~theta:1.0 ~pred_a:pred_reject_all
        ~pred_b:pred_none profile;
      Estimator_intf.end_biased ~theta:1.0 ~pred_a:pred_reject_all
        ~pred_b:pred_none profile;
      Estimator_intf.wander ~theta:1.0 ~pred_a:pred_reject_all
        ~pred_b:pred_none profile;
    ]
  in
  List.iter
    (fun est ->
      check_exact_each_seed ~label:est.Estimator_intf.name ~truth:0.0 est)
    adapters

let test_intf_seed_robust_means () =
  (* sampled adapters at theta < 1: per-seed estimates vary but the mean
     over many seeded repetitions must sit near the truth *)
  let profile = Lazy.force profile_m2m in
  let mean_over est runs seed0 =
    mean_of (fun prng -> est.Estimator_intf.estimate prng) runs seed0
  in
  let csdl =
    Estimator_intf.csdl ~theta:0.5 ~pred_a:pred_none ~pred_b:pred_none profile
  in
  check_unbiased ~label:"intf csdl" ~truth:truth_m2m (mean_over csdl 3000 21)
    0.1;
  let ind =
    Estimator_intf.independent ~theta:0.5 ~pred_a:pred_none ~pred_b:pred_none
      profile
  in
  check_unbiased ~label:"intf independent" ~truth:truth_m2m
    (mean_over ind 3000 22) 0.1;
  let eb =
    Estimator_intf.end_biased ~theta:0.4 ~pred_a:pred_none ~pred_b:pred_none
      profile
  in
  check_unbiased ~label:"intf end-biased" ~truth:truth_m2m
    (mean_over eb 3000 23) 0.1;
  let w =
    Estimator_intf.wander ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
      profile
  in
  check_unbiased ~label:"intf wander" ~truth:truth_m2m (mean_over w 3000 24)
    0.1

let test_intf_agms_applicability () =
  let profile = Lazy.force profile_m2m in
  (match
     Estimator_intf.agms ~theta:0.5 ~pred_a:pred_reject_all ~pred_b:pred_none
       profile
   with
  | Some _ -> Alcotest.fail "AGMS must refuse predicates"
  | None -> ());
  match
    Estimator_intf.agms ~theta:0.8 ~pred_a:pred_none ~pred_b:pred_none profile
  with
  | None -> Alcotest.fail "AGMS must accept the unfiltered join"
  | Some est ->
      Alcotest.(check bool) "no shared offline phase" true
        (Float.is_nan est.Estimator_intf.offline_wall_seconds);
      check_unbiased ~label:"intf AGMS" ~truth:truth_m2m
        (mean_of (fun prng -> est.Estimator_intf.estimate prng) 600 25)
        0.15

let test_intf_join_synopsis_applicability () =
  (match
     Estimator_intf.join_synopsis ~theta:0.5 ~pred_a:pred_none
       ~pred_b:pred_none (Lazy.force profile_m2m)
   with
  | Some _ -> Alcotest.fail "join synopsis must refuse m2m joins"
  | None -> ());
  match
    Estimator_intf.join_synopsis ~theta:1.0 ~pred_a:pred_none ~pred_b:pred_none
      (Lazy.force profile_pkfk)
  with
  | None -> Alcotest.fail "join synopsis must accept PK-FK"
  | Some est ->
      check_exact_each_seed ~label:"intf join synopsis" ~truth:truth_pkfk est

let test_intf_csdl_variance () =
  let profile = Lazy.force profile_m2m in
  (* CS2L at theta = 1: the synopsis is the population, so the plug-in
     analytic variance must vanish and the paired estimate must stay
     exact *)
  let full =
    Estimator_intf.csdl ~spec:Csdl.Spec.cs2l ~theta:1.0 ~pred_a:pred_none
      ~pred_b:pred_none profile
  in
  (match full.Estimator_intf.estimate_with_variance with
  | None -> Alcotest.fail "csdl must report analytic variance"
  | Some f ->
      let e, v = f (Prng.create 31) in
      Alcotest.(check (float 1e-6)) "estimate exact" truth_m2m e;
      Alcotest.(check (float 1e-6)) "variance zero at theta=1" 0.0 v);
  (* under real sampling: variance nonnegative, paired estimate equals the
     plain estimate on the same stream *)
  let sampled =
    Estimator_intf.csdl ~theta:0.5 ~pred_a:pred_none ~pred_b:pred_none profile
  in
  match sampled.Estimator_intf.estimate_with_variance with
  | None -> Alcotest.fail "csdl must report analytic variance"
  | Some f ->
      List.iter
        (fun seed ->
          let e, v = f (Prng.create seed) in
          let plain = sampled.Estimator_intf.estimate (Prng.create seed) in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "paired = plain (seed %d)" seed)
            plain e;
          Alcotest.(check bool)
            (Printf.sprintf "variance >= 0 (seed %d)" seed)
            true (v >= 0.0))
        seeds

let () =
  Alcotest.run "repro_baselines"
    [
      ( "independent",
        [
          Alcotest.test_case "unbiased" `Slow test_independent_unbiased;
          Alcotest.test_case "exact at theta=1" `Quick test_independent_exact_at_theta_one;
          Alcotest.test_case "predicates" `Quick test_independent_with_predicate;
          Alcotest.test_case "sparse join failure" `Quick
            test_independent_high_variance_on_sparse_join;
        ] );
      ( "end_biased",
        [
          Alcotest.test_case "unbiased" `Slow test_end_biased_unbiased;
          Alcotest.test_case "exact at theta=1" `Quick test_end_biased_exact_at_theta_one;
          Alcotest.test_case "predicates exact" `Quick
            test_end_biased_predicates_exact_per_value;
          Alcotest.test_case "budget" `Slow test_end_biased_sample_size_near_budget;
        ] );
      ( "wander",
        [
          Alcotest.test_case "unbiased" `Slow test_wander_unbiased;
          Alcotest.test_case "predicates" `Slow test_wander_with_predicates;
          Alcotest.test_case "empty table" `Quick test_wander_empty_table;
          Alcotest.test_case "zero walks" `Quick test_wander_rejects_zero_walks;
        ] );
      ( "join_synopsis",
        [
          Alcotest.test_case "rejects m2m" `Quick test_join_synopsis_rejects_m2m;
          Alcotest.test_case "unbiased" `Slow test_join_synopsis_unbiased;
          Alcotest.test_case "pk predicate" `Quick test_join_synopsis_pk_predicate;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "build counts" `Quick test_histogram_build_counts;
          Alcotest.test_case "single bucket" `Quick test_histogram_single_bucket_estimate;
          Alcotest.test_case "uniform accuracy" `Quick test_histogram_uniform_accuracy;
          Alcotest.test_case "skew degrades" `Quick test_histogram_skew_degrades;
          Alcotest.test_case "range restriction" `Quick test_histogram_range_restriction;
          Alcotest.test_case "plan buckets" `Quick test_histogram_plan_buckets;
        ] );
      ( "agms",
        [
          Alcotest.test_case "unbiased across plans" `Slow test_agms_unbiased_across_plans;
          Alcotest.test_case "median accuracy" `Quick test_agms_median_accuracy;
          Alcotest.test_case "plan mismatch" `Quick test_agms_plan_mismatch_rejected;
          Alcotest.test_case "self join" `Quick test_agms_self_join_positive;
          Alcotest.test_case "budget sizing" `Quick test_agms_budget_sizing;
        ] );
      ( "estimator_intf",
        [
          Alcotest.test_case "exact at theta=1" `Quick test_intf_exact_at_theta_one;
          Alcotest.test_case "empty join" `Quick test_intf_empty_join;
          Alcotest.test_case "all filtered" `Quick test_intf_all_filtered;
          Alcotest.test_case "seed-robust means" `Slow test_intf_seed_robust_means;
          Alcotest.test_case "agms applicability" `Slow test_intf_agms_applicability;
          Alcotest.test_case "join synopsis applicability" `Quick
            test_intf_join_synopsis_applicability;
          Alcotest.test_case "csdl analytic variance" `Quick test_intf_csdl_variance;
        ] );
    ]
