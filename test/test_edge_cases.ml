(* Robustness suite: degenerate inputs that a deployed estimator meets in
   the wild — empty tables, all-null join columns, single rows, extreme
   budgets — must degrade to well-defined answers, never crash. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_rows rows = Table.of_rows schema rows

let table_of_counts counts =
  table_of_rows
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let empty = lazy (table_of_rows [])
let nulls_only =
  lazy (table_of_rows (List.init 8 (fun i -> [| Value.Null; Value.Int i |])))
let single_row = lazy (table_of_rows [ [| Value.Int 1; Value.Int 0 |] ])
let normal = lazy (table_of_counts [ (1, 6); (2, 3) ])

let all_specs =
  Csdl.Spec.csdl_variants
  @ [ Csdl.Spec.cs2; Csdl.Spec.cso; Csdl.Spec.cs2l; Csdl.Spec.cs2l_approx () ]

let estimate_all_specs profile =
  List.map
    (fun spec ->
      let est = Csdl.Estimator.prepare ~sample_first:`A spec ~theta:0.5 profile in
      Csdl.Estimator.estimate_once est (Prng.create 3))
    all_specs

let test_empty_a_side () =
  let profile = Csdl.Profile.of_tables (Lazy.force empty) "k" (Lazy.force normal) "k" in
  List.iter
    (fun e -> Alcotest.(check (float 0.0)) "estimate 0" 0.0 e)
    (estimate_all_specs profile)

let test_empty_b_side () =
  let profile = Csdl.Profile.of_tables (Lazy.force normal) "k" (Lazy.force empty) "k" in
  List.iter
    (fun e -> Alcotest.(check (float 0.0)) "estimate 0" 0.0 e)
    (estimate_all_specs profile)

let test_both_empty () =
  let profile = Csdl.Profile.of_tables (Lazy.force empty) "k" (Lazy.force empty) "k" in
  Alcotest.(check (float 0.0)) "jvd 0" 0.0 profile.Csdl.Profile.jvd;
  List.iter
    (fun e -> Alcotest.(check (float 0.0)) "estimate 0" 0.0 e)
    (estimate_all_specs profile)

let test_all_null_join_column () =
  (* nulls never join: truth is 0 and every estimator must say so *)
  let profile =
    Csdl.Profile.of_tables (Lazy.force nulls_only) "k" (Lazy.force normal) "k"
  in
  Alcotest.(check int) "truth 0" 0 (Csdl.Profile.true_join_size profile);
  List.iter
    (fun e -> Alcotest.(check (float 0.0)) "estimate 0" 0.0 e)
    (estimate_all_specs profile)

let test_single_row_tables () =
  let profile =
    Csdl.Profile.of_tables (Lazy.force single_row) "k" (Lazy.force single_row) "k"
  in
  Alcotest.(check int) "truth 1" 1 (Csdl.Profile.true_join_size profile);
  List.iter
    (fun e ->
      Alcotest.(check bool) "estimate finite and non-negative" true
        (Float.is_finite e && e >= 0.0))
    (estimate_all_specs profile)

let test_theta_one_and_tiny () =
  let profile = Csdl.Profile.of_tables (Lazy.force normal) "k" (Lazy.force normal) "k" in
  List.iter
    (fun theta ->
      List.iter
        (fun spec ->
          let est = Csdl.Estimator.prepare ~sample_first:`A spec ~theta profile in
          let e = Csdl.Estimator.estimate_once est (Prng.create 7) in
          if not (Float.is_finite e) || e < 0.0 then
            Alcotest.failf "%s at theta=%g: bad estimate %f"
              (Csdl.Spec.to_string spec) theta e)
        all_specs)
    [ 1.0; 1e-6 ]

let test_self_join_same_table () =
  (* joining a table with itself must work (Table VII's m2m case) *)
  let t = Lazy.force normal in
  let profile = Csdl.Profile.of_tables t "k" t "k" in
  let truth = float_of_int (Csdl.Profile.true_join_size profile) in
  Alcotest.(check (float 1e-9)) "truth = 6^2 + 3^2" 45.0 truth;
  let est = Csdl.Estimator.prepare ~sample_first:`A Csdl.Spec.cso ~theta:1.0 profile in
  Alcotest.(check (float 1e-9)) "CSO exact on self join" truth
    (Csdl.Estimator.estimate_once est (Prng.create 9))

let test_opt_on_empty_profile () =
  let profile = Csdl.Profile.of_tables (Lazy.force empty) "k" (Lazy.force empty) "k" in
  let est = Csdl.Opt.prepare ~theta:0.5 profile in
  Alcotest.(check (float 0.0)) "opt estimate 0" 0.0
    (Csdl.Estimator.estimate_once est (Prng.create 11))

let test_discrete_learning_extreme_counts () =
  (* enormous counts must not overflow the Poisson machinery *)
  let t = Csdl.Discrete_learning.learn [| 1e6; 1.0; 2.0 |] in
  let p = Csdl.Discrete_learning.probability_of_count t 1e6 in
  Alcotest.(check bool) "heavy probability sane" true (p > 0.9 && p <= 1.0);
  let p1 = Csdl.Discrete_learning.probability_of_count t 1.0 in
  Alcotest.(check bool) "light probability sane" true (p1 >= 0.0 && p1 <= 1.0)

let test_chain_with_empty_middle () =
  let a = table_of_counts [ (1, 2) ] in
  let tables =
    {
      Csdl.Chain_n.links =
        [
          { Csdl.Chain_n.table = a; pk = "k"; fk = None };
          { Csdl.Chain_n.table = Lazy.force empty; pk = "k"; fk = Some "attr" };
        ];
      last = Lazy.force normal;
      last_fk = "k";
    }
  in
  Alcotest.(check int) "truth 0" 0 (Csdl.Chain_n.true_size tables);
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:0.5 tables in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 13) in
  Alcotest.(check (float 0.0)) "estimate 0" 0.0
    (Csdl.Chain_n.estimate prepared synopsis)

let test_star_with_unmatched_dimension () =
  (* fact rows whose fk never matches the dimension: truth and estimate 0 *)
  let fact = table_of_counts [ (99, 5) ] in
  let dim = table_of_counts [ (1, 1) ] in
  let tables =
    { Csdl.Star.fact; dimensions = [ { Csdl.Star.table = dim; pk = "k"; fk = "k" } ] }
  in
  Alcotest.(check int) "truth 0" 0 (Csdl.Star.true_size tables);
  let prepared = Csdl.Star.prepare Csdl.Spec.cs2l ~theta:1.0 tables in
  let synopsis = Csdl.Star.draw prepared (Prng.create 15) in
  Alcotest.(check (float 0.0)) "estimate 0" 0.0
    (Csdl.Star.estimate prepared synopsis)

let test_baselines_on_empty_tables () =
  let profile = Csdl.Profile.of_tables (Lazy.force empty) "k" (Lazy.force normal) "k" in
  let open Repro_baselines in
  Alcotest.(check (float 0.0)) "independent" 0.0
    (Independent.estimate_once (Independent.prepare ~theta:0.5 profile)
       (Prng.create 17));
  Alcotest.(check (float 0.0)) "end-biased" 0.0
    (End_biased.estimate_once (End_biased.prepare ~theta:0.5 profile)
       (Prng.create 17));
  Alcotest.(check (float 0.0)) "wander" 0.0
    (Wander.estimate (Wander.prepare ~walks:5 profile) (Prng.create 17))

let test_histogram_on_empty_table () =
  let open Repro_baselines in
  let h = Histogram.build ~buckets:4 (Lazy.force empty) "k" in
  Alcotest.(check int) "no buckets" 0 (Histogram.bucket_count h);
  let normal_h = Histogram.build ~buckets:4 (Lazy.force normal) "k" in
  Alcotest.(check (float 0.0)) "join with empty" 0.0
    (Histogram.estimate_join h normal_h)

let test_store_empty_roundtrip () =
  let store = Csdl.Store.create () in
  let path = Filename.temp_file "repro" ".edge" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let back = Csdl.Store.load ~resolve_table:(fun _ -> Lazy.force normal) path in
      Alcotest.(check (list string)) "no keys" [] (Csdl.Store.keys back))

let () =
  Alcotest.run "repro_edge_cases"
    [
      ( "pair",
        [
          Alcotest.test_case "empty A" `Quick test_empty_a_side;
          Alcotest.test_case "empty B" `Quick test_empty_b_side;
          Alcotest.test_case "both empty" `Quick test_both_empty;
          Alcotest.test_case "all-null join column" `Quick test_all_null_join_column;
          Alcotest.test_case "single rows" `Quick test_single_row_tables;
          Alcotest.test_case "extreme thetas" `Quick test_theta_one_and_tiny;
          Alcotest.test_case "self join" `Quick test_self_join_same_table;
          Alcotest.test_case "opt on empty" `Quick test_opt_on_empty_profile;
          Alcotest.test_case "DL extreme counts" `Quick
            test_discrete_learning_extreme_counts;
        ] );
      ( "multi_table",
        [
          Alcotest.test_case "chain empty middle" `Quick test_chain_with_empty_middle;
          Alcotest.test_case "star unmatched dim" `Quick
            test_star_with_unmatched_dimension;
        ] );
      ( "ecosystem",
        [
          Alcotest.test_case "baselines on empty" `Quick test_baselines_on_empty_tables;
          Alcotest.test_case "histogram on empty" `Quick test_histogram_on_empty_table;
          Alcotest.test_case "empty store roundtrip" `Quick test_store_empty_roundtrip;
        ] );
    ]
