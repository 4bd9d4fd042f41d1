(* Tests for Profile and Budget: the offline resolution of sampling rates. *)

open Repro_relation

let check_float = Alcotest.(check (float 1e-9))

let schema = Schema.make [ ("k", Schema.T_int); ("payload", Schema.T_string) ]

let table_of_counts counts =
  (* counts = [(value, multiplicity); ...] *)
  let rows =
    List.concat_map
      (fun (v, m) ->
        List.init m (fun i -> [| Value.Int v; Value.Str (Printf.sprintf "%d-%d" v i) |]))
      counts
  in
  Table.of_rows schema rows

let profile_of counts_a counts_b =
  Csdl.Profile.of_tables (table_of_counts counts_a) "k" (table_of_counts counts_b) "k"

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_frequencies () =
  let p = profile_of [ (1, 3); (2, 1) ] [ (1, 2); (3, 5) ] in
  Alcotest.(check int) "a_1" 3 (Csdl.Profile.frequency p.Csdl.Profile.a (Value.Int 1));
  Alcotest.(check int) "b_1" 2 (Csdl.Profile.frequency p.Csdl.Profile.b (Value.Int 1));
  Alcotest.(check int) "absent" 0 (Csdl.Profile.frequency p.Csdl.Profile.a (Value.Int 9))

let test_profile_shared_and_jvd () =
  let p = profile_of [ (1, 3); (2, 1) ] [ (1, 2); (3, 5) ] in
  Alcotest.(check int) "one shared value" 1 (Array.length p.Csdl.Profile.shared_values);
  (* jvd = min(2/4, 2/7) = 2/7 *)
  check_float "jvd" (2.0 /. 7.0) p.Csdl.Profile.jvd;
  Alcotest.(check int) "total rows" 11 p.Csdl.Profile.total_rows

let test_profile_true_join_size () =
  let p = profile_of [ (1, 3); (2, 2) ] [ (1, 4); (2, 5) ] in
  Alcotest.(check int) "3*4 + 2*5" 22 (Csdl.Profile.true_join_size p)

let test_profile_swap () =
  let p = profile_of [ (1, 3) ] [ (1, 2); (2, 2) ] in
  let s = Csdl.Profile.swap p in
  Alcotest.(check int) "swapped a-card" 4 s.Csdl.Profile.a.Csdl.Profile.cardinality;
  Alcotest.(check int) "swap preserves join size"
    (Csdl.Profile.true_join_size p)
    (Csdl.Profile.true_join_size s)

let test_profile_key_side () =
  let p = profile_of [ (1, 1); (2, 1); (3, 1) ] [ (1, 4); (1, 0) ] in
  Alcotest.(check bool) "a is key" true (Csdl.Profile.is_key_side p.Csdl.Profile.a);
  Alcotest.(check bool) "b is not" false (Csdl.Profile.is_key_side p.Csdl.Profile.b)

(* ------------------------------------------------------------------ *)
(* Budget: same-q resolution                                           *)
(* ------------------------------------------------------------------ *)

(* A profile big enough that theta * total is comfortably above the sentry
   floor: 20 values, 50 tuples each, both sides. *)
let big_profile =
  lazy
    (let counts = List.init 20 (fun i -> (i, 50)) in
     profile_of counts counts)

let test_budget_same_q_meets_budget () =
  let profile = Lazy.force big_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let r = Csdl.Budget.resolve spec ~theta:0.1 profile in
  (* charged = A-side sentries (20) + non-sentry tuples; the B-side
     sentries (20) ride on top *)
  Alcotest.(check (float 1.0)) "expected size = budget + B sentries"
    (r.Csdl.Budget.budget +. 20.0)
    r.Csdl.Budget.expected_size;
  (match r.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q ->
      Alcotest.(check bool) "q near theta" true (q > 0.08 && q < 0.13)
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ ->
      Alcotest.fail "expected constant q")

let test_budget_first_level_sentries_can_exhaust () =
  (* 100 distinct values, 2 tuples each; theta tiny: the 100 first-level
     sentries alone exceed the 4-tuple budget, so q clamps to 0 and the
     synopsis degrades to the sentry floor — the paper's Table V collapse
     of the p = 1 variants on large-jvd data. *)
  let counts = List.init 100 (fun i -> (i, 2)) in
  let profile = profile_of counts counts in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let r = Csdl.Budget.resolve spec ~theta:0.01 profile in
  (match r.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q -> check_float "q clamps to 0" 0.0 q
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ ->
      Alcotest.fail "expected constant q");
  Alcotest.(check bool) "sentries overshoot budget" true
    (r.Csdl.Budget.expected_size > r.Csdl.Budget.budget)

let test_budget_semijoin_sentries_ride_on_top () =
  (* Few values, many tuples: the A-side sentry cost (5) is well within
     the budget; q stays positive even though adding the B-side sentries
     would not change that here, the accounting is visible through
     expected_size = budget + |B sentries|. *)
  let counts = List.init 5 (fun i -> (i, 200)) in
  let profile = profile_of counts counts in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let r = Csdl.Budget.resolve spec ~theta:0.05 profile in
  Alcotest.(check (float 0.5)) "expected = budget + B sentries"
    (r.Csdl.Budget.budget +. 5.0)
    r.Csdl.Budget.expected_size

let test_budget_q_one_pinned () =
  let profile = Lazy.force big_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_one in
  let r = Csdl.Budget.resolve spec ~theta:0.1 profile in
  match r.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q -> check_float "q pinned at 1" 1.0 q
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ ->
      Alcotest.fail "expected constant q"

let test_budget_theta_validation () =
  let profile = Lazy.force big_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  Alcotest.check_raises "theta > 1"
    (Invalid_argument "Budget.resolve: theta must be in (0, 1]") (fun () ->
      ignore (Csdl.Budget.resolve spec ~theta:1.5 profile));
  Alcotest.check_raises "theta = 0"
    (Invalid_argument "Budget.resolve: theta must be in (0, 1]") (fun () ->
      ignore (Csdl.Budget.resolve spec ~theta:0.0 profile))

(* NaN fails every ordered comparison, so a range check written as
   [theta <= 0 || theta > 1] lets it through to a 0-tuple synopsis. *)
let test_budget_theta_nan () =
  let profile = Lazy.force big_profile in
  List.iter
    (fun spec ->
      Alcotest.check_raises "theta = nan"
        (Invalid_argument "Budget.resolve: theta must be in (0, 1]") (fun () ->
          ignore (Csdl.Budget.resolve spec ~theta:Float.nan profile)))
    [ Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta;
      Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff;
      Csdl.Spec.cs2l ]

(* ------------------------------------------------------------------ *)
(* Budget: diff resolutions                                            *)
(* ------------------------------------------------------------------ *)

(* Skewed profile: frequencies spanning two orders of magnitude. *)
let skewed_profile =
  lazy
    (let counts = List.init 30 (fun i -> (i, 5 + (i * i))) in
     profile_of counts counts)

let test_budget_diff_q_meets_budget () =
  let profile = Lazy.force skewed_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff in
  let r = Csdl.Budget.resolve spec ~theta:0.1 profile in
  (* expected size = budget (charged) + one semijoin sentry per value *)
  let target = r.Csdl.Budget.budget +. 30.0 in
  let tolerance = 0.02 *. target in
  Alcotest.(check bool) "expected size within 2% of budget + sentries" true
    (Float.abs (r.Csdl.Budget.expected_size -. target) < tolerance)

let test_budget_diff_q_monotone_in_frequency () =
  let profile = Lazy.force skewed_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff in
  let r = Csdl.Budget.resolve spec ~theta:0.1 profile in
  let q v = Csdl.Budget.q_of r profile (Value.Int v) in
  (* value 29 has frequency 846, value 1 has 6: q_29 >= q_1 *)
  Alcotest.(check bool) "heavier value gets higher q" true (q 29 >= q 1);
  Alcotest.(check bool) "q capped at 1" true (q 29 <= 1.0)

let test_budget_diff_p_skips_non_joining () =
  (* value 99 exists only in A; diff variants must assign it p = 0. *)
  let profile = profile_of [ (1, 10); (99, 10) ] [ (1, 10) ] in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_diff Csdl.Spec.L_theta in
  let r = Csdl.Budget.resolve spec ~theta:0.3 profile in
  check_float "non-joining skipped" 0.0
    (Csdl.Budget.p_of r profile (Value.Int 99));
  Alcotest.(check bool) "joining kept" true
    (Csdl.Budget.p_of r profile (Value.Int 1) > 0.0)

let test_budget_same_q_keeps_non_joining () =
  let profile = profile_of [ (1, 10); (99, 10) ] [ (1, 10) ] in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let r = Csdl.Budget.resolve spec ~theta:0.3 profile in
  check_float "p stays 1 for all values" 1.0
    (Csdl.Budget.p_of r profile (Value.Int 99))

let test_budget_base_q_matches_same_q_variant () =
  (* For the same p level, the diff variant's base_q must equal the q the
     same-q variant resolves to — that is Eq. 6's premise. *)
  let profile = Lazy.force skewed_profile in
  let diff = Csdl.Budget.resolve (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
      ~theta:0.1 profile in
  let same = Csdl.Budget.resolve (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.1 profile in
  (match same.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q ->
      Alcotest.(check (float 1e-6)) "base_q = same-q rate" q diff.Csdl.Budget.base_q
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ -> Alcotest.fail "expected constant");
  (* and for a same-q variant, base_q is just its own q *)
  match same.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q -> check_float "own base_q" q same.Csdl.Budget.base_q
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ -> Alcotest.fail "expected constant"

let test_budget_diff_both_shared_constant () =
  let profile = Lazy.force skewed_profile in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_diff Csdl.Spec.L_diff in
  let r = Csdl.Budget.resolve spec ~theta:0.1 profile in
  match (r.Csdl.Budget.p_rate, r.Csdl.Budget.q_rate) with
  | Csdl.Budget.Scaled c1, Csdl.Budget.Scaled c2 ->
      check_float "shared constant" c1 c2
  | _ -> Alcotest.fail "expected scaled rates on both levels"

let test_budget_u_defaults_to_q () =
  let profile = Lazy.force big_profile in
  let r =
    Csdl.Budget.resolve (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
      ~theta:0.1 profile
  in
  check_float "u = q"
    (Csdl.Budget.q_of r profile (Value.Int 3))
    (Csdl.Budget.u_of r profile (Value.Int 3))

let test_budget_cs2_u_is_one () =
  let profile = Lazy.force big_profile in
  let r = Csdl.Budget.resolve Csdl.Spec.cs2 ~theta:0.1 profile in
  check_float "CS2 u = 1" 1.0 (Csdl.Budget.u_of r profile (Value.Int 3));
  check_float "CS2 q = theta" 0.1 (Csdl.Budget.q_of r profile (Value.Int 3));
  check_float "CS2 p = 1" 1.0 (Csdl.Budget.p_of r profile (Value.Int 3))

(* ------------------------------------------------------------------ *)
(* Variance formula and CS2L optimisation                              *)
(* ------------------------------------------------------------------ *)

let test_scaling_variance_hand_computed () =
  (* One shared value with a=2, b=2, p=1, q=u=1/2.
     E[A^2] = 4 + 1*(1/2)/(1/2) = 5; same for B. Var = 5*5 - 16 = 9. *)
  let profile = profile_of [ (1, 2) ] [ (1, 2) ] in
  check_float "variance" 9.0
    (Csdl.Budget.scaling_variance profile ~p:(fun _ -> 1.0) ~q:0.5 ~u:0.5)

let test_scaling_variance_zero_when_full () =
  let profile = profile_of [ (1, 3); (2, 4) ] [ (1, 2); (2, 1) ] in
  check_float "full sampling has zero variance" 0.0
    (Csdl.Budget.scaling_variance profile ~p:(fun _ -> 1.0) ~q:1.0 ~u:1.0)

let test_scaling_variance_infinite_cases () =
  let profile = profile_of [ (1, 2) ] [ (1, 2) ] in
  check_float "q = 0" Float.infinity
    (Csdl.Budget.scaling_variance profile ~p:(fun _ -> 1.0) ~q:0.0 ~u:0.5);
  check_float "p = 0" Float.infinity
    (Csdl.Budget.scaling_variance profile ~p:(fun _ -> 0.0) ~q:0.5 ~u:0.5)

let test_cs2l_resolution_within_budget () =
  let profile = Lazy.force skewed_profile in
  let r = Csdl.Budget.resolve Csdl.Spec.cs2l ~theta:0.1 profile in
  Alcotest.(check bool) "within 10% of budget" true
    (r.Csdl.Budget.expected_size < 1.1 *. r.Csdl.Budget.budget);
  match r.Csdl.Budget.p_rate with
  | Csdl.Budget.Scaled d -> Alcotest.(check bool) "positive p constant" true (d > 0.0)
  | Csdl.Budget.Const _ | Csdl.Budget.Blended _ ->
      Alcotest.fail "CS2L p must be scaled"

let test_cs2l_picks_full_sampling_at_theta_one () =
  (* With theta = 1 the whole data fits; variance-minimising CS2L should
     resolve to (effectively) full sampling with zero variance. *)
  let profile = profile_of [ (1, 5); (2, 3) ] [ (1, 4); (2, 6) ] in
  let r = Csdl.Budget.resolve Csdl.Spec.cs2l ~theta:1.0 profile in
  (match r.Csdl.Budget.q_rate with
  | Csdl.Budget.Const q -> check_float "q = 1" 1.0 q
  | Csdl.Budget.Scaled _ | Csdl.Budget.Blended _ ->
      Alcotest.fail "expected constant q");
  check_float "p saturates" 1.0 (Csdl.Budget.p_of r profile (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Heavy-hitter approximated CS2L                                      *)
(* ------------------------------------------------------------------ *)

let hh_profile =
  lazy
    ((* two mega-values plus a flat tail *)
     let counts = (100, 400) :: (101, 300) :: List.init 40 (fun i -> (i, 5)) in
     profile_of counts counts)

let test_cs2l_approx_blended_rates () =
  let profile = Lazy.force hh_profile in
  let r = Csdl.Budget.resolve (Csdl.Spec.cs2l_approx ~k:2 ()) ~theta:0.05 profile in
  (match r.Csdl.Budget.p_rate with
  | Csdl.Budget.Blended { heavy; _ } ->
      Alcotest.(check int) "two heavy values" 2
        (Value.Tbl.length heavy);
      Alcotest.(check bool) "mega-value is heavy" true
        (Value.Tbl.mem heavy (Value.Int 100))
  | _ -> Alcotest.fail "expected blended p rate");
  (* every tail value shares the same first-level rate *)
  let p v = Csdl.Budget.p_of r profile (Value.Int v) in
  check_float "tail rates uniform" (p 1) (p 37);
  Alcotest.(check bool) "heavy rate >= tail rate" true (p 100 >= p 1)

let test_cs2l_approx_matches_exact_when_k_large () =
  (* with k covering every value the approximation is the identity *)
  let profile = Lazy.force hh_profile in
  let exact = Csdl.Budget.resolve Csdl.Spec.cs2l ~theta:0.05 profile in
  let approx =
    Csdl.Budget.resolve (Csdl.Spec.cs2l_approx ~k:1000 ()) ~theta:0.05 profile
  in
  List.iter
    (fun v ->
      check_float
        (Printf.sprintf "p_%d equal" v)
        (Csdl.Budget.p_of exact profile (Value.Int v))
        (Csdl.Budget.p_of approx profile (Value.Int v)))
    [ 0; 5; 100; 101 ]

let test_cs2l_approx_estimates_run () =
  let profile = Lazy.force hh_profile in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A (Csdl.Spec.cs2l_approx ~k:2 ())
      ~theta:0.3 profile
  in
  let prng = Repro_util.Prng.create 3 in
  let qs =
    Array.init 15 (fun _ ->
        let truth = float_of_int (Csdl.Profile.true_join_size profile) in
        Repro_stats.Qerror.compute ~truth
          ~estimate:(Csdl.Estimator.estimate_once est prng))
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f finite" median)
    true
    (Float.is_finite median)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let random_profile_gen =
  QCheck.Gen.(
    let counts =
      list_size (int_range 1 15)
        (pair (int_range 0 9) (int_range 1 20))
    in
    pair counts counts)

let all_specs =
  Csdl.Spec.csdl_variants @ [ Csdl.Spec.cs2; Csdl.Spec.cso; Csdl.Spec.cs2l ]

let prop_rates_are_probabilities =
  QCheck.Test.make ~count:60 ~name:"resolved rates lie in [0,1]"
    (QCheck.make random_profile_gen)
    (fun (ca, cb) ->
      let dedup l = List.sort_uniq (fun (a, _) (b, _) -> compare a b) l in
      let profile = profile_of (dedup ca) (dedup cb) in
      List.for_all
        (fun spec ->
          let r = Csdl.Budget.resolve spec ~theta:0.2 profile in
          List.for_all
            (fun v ->
              let v = Value.Int v in
              let p = Csdl.Budget.p_of r profile v in
              let q = Csdl.Budget.q_of r profile v in
              let u = Csdl.Budget.u_of r profile v in
              p >= 0.0 && p <= 1.0 && q >= 0.0 && q <= 1.0 && u >= 0.0 && u <= 1.0)
            (List.init 10 Fun.id))
        all_specs)

let prop_expected_size_scales_with_theta =
  QCheck.Test.make ~count:40 ~name:"bigger theta never shrinks the synopsis"
    (QCheck.make random_profile_gen)
    (fun (ca, cb) ->
      let dedup l = List.sort_uniq (fun (a, _) (b, _) -> compare a b) l in
      let profile = profile_of (dedup ca) (dedup cb) in
      let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff in
      let small = Csdl.Budget.resolve spec ~theta:0.05 profile in
      let large = Csdl.Budget.resolve spec ~theta:0.5 profile in
      large.Csdl.Budget.expected_size >= small.Csdl.Budget.expected_size -. 1e-9)

let () =
  Alcotest.run "csdl_budget"
    [
      ( "profile",
        [
          Alcotest.test_case "frequencies" `Quick test_profile_frequencies;
          Alcotest.test_case "shared/jvd" `Quick test_profile_shared_and_jvd;
          Alcotest.test_case "true join size" `Quick test_profile_true_join_size;
          Alcotest.test_case "swap" `Quick test_profile_swap;
          Alcotest.test_case "key side" `Quick test_profile_key_side;
        ] );
      ( "same_q",
        [
          Alcotest.test_case "meets budget" `Quick test_budget_same_q_meets_budget;
          Alcotest.test_case "first-level sentry exhaustion" `Quick
            test_budget_first_level_sentries_can_exhaust;
          Alcotest.test_case "semijoin sentries ride on top" `Quick
            test_budget_semijoin_sentries_ride_on_top;
          Alcotest.test_case "q=1 pinned" `Quick test_budget_q_one_pinned;
          Alcotest.test_case "theta validation" `Quick test_budget_theta_validation;
          Alcotest.test_case "theta NaN refused" `Quick test_budget_theta_nan;
        ] );
      ( "diff",
        [
          Alcotest.test_case "diff-q meets budget" `Quick test_budget_diff_q_meets_budget;
          Alcotest.test_case "diff-q monotone" `Quick test_budget_diff_q_monotone_in_frequency;
          Alcotest.test_case "diff-p skips non-joining" `Quick
            test_budget_diff_p_skips_non_joining;
          Alcotest.test_case "same-q keeps non-joining" `Quick
            test_budget_same_q_keeps_non_joining;
          Alcotest.test_case "base_q = same-q rate" `Quick
            test_budget_base_q_matches_same_q_variant;
          Alcotest.test_case "diff-diff shared constant" `Quick
            test_budget_diff_both_shared_constant;
          Alcotest.test_case "u defaults to q" `Quick test_budget_u_defaults_to_q;
          Alcotest.test_case "CS2 u=1" `Quick test_budget_cs2_u_is_one;
        ] );
      ( "variance",
        [
          Alcotest.test_case "hand computed" `Quick test_scaling_variance_hand_computed;
          Alcotest.test_case "zero when full" `Quick test_scaling_variance_zero_when_full;
          Alcotest.test_case "infinite cases" `Quick test_scaling_variance_infinite_cases;
          Alcotest.test_case "CS2L within budget" `Quick test_cs2l_resolution_within_budget;
          Alcotest.test_case "CS2L full at theta=1" `Quick
            test_cs2l_picks_full_sampling_at_theta_one;
        ] );
      ( "cs2l_approx",
        [
          Alcotest.test_case "blended rates" `Quick test_cs2l_approx_blended_rates;
          Alcotest.test_case "k large = exact" `Quick
            test_cs2l_approx_matches_exact_when_k_large;
          Alcotest.test_case "estimates run" `Quick test_cs2l_approx_estimates_run;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_rates_are_probabilities; prop_expected_size_scales_with_theta ] );
    ]
