(* Fault-injection suite: under every injected fault, across hundreds of
   randomized scenarios, the guarded estimator must return [Ok] with a
   finite estimate inside [0, |A| * |B|] and an honest degradation trace —
   zero uncaught exceptions. Plus the degenerate inputs of the checked
   APIs: they return [Error _], never raise. *)

open Repro_relation
module Prng = Repro_util.Prng
module Fault = Csdl.Fault
module Fault_injection = Repro_robustness.Fault_injection
module Guarded = Repro_robustness.Guarded

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let dense = table_of_counts (List.init 12 (fun v -> (v, 4)))
let skewed = table_of_counts [ (1, 30); (2, 8); (3, 3); (4, 1); (5, 1) ]
let pk = table_of_counts (List.init 10 (fun v -> (v, 1)))
let fk = table_of_counts [ (0, 9); (1, 5); (2, 5); (3, 2); (7, 6) ]
let empty = Table.of_rows schema []
let nulls_only =
  Table.of_rows schema (List.init 8 (fun i -> [| Value.Null; Value.Int i |]))
let one_value = table_of_counts [ (42, 9) ]

let table_pairs = [ (dense, dense); (skewed, dense); (fk, pk) ]
let profile_of (a, b) = Csdl.Profile.of_tables a "k" b "k"

let upper_bound (profile : Csdl.Profile.t) =
  float_of_int profile.Csdl.Profile.a.Csdl.Profile.cardinality
  *. float_of_int profile.Csdl.Profile.b.Csdl.Profile.cardinality

(* The cascade's rung names in order, ending with the wired fallback and
   the everything-failed answer. *)
let cascade_names =
  [
    Csdl.Spec.to_string (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff);
    Csdl.Spec.to_string (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff);
    Csdl.Spec.to_string Csdl.Estimator.scaling_spec;
    Repro_baselines.Independent.name;
    "zero";
  ]

let rec firstn n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: firstn (n - 1) rest

let rec index_of name = function
  | [] -> Alcotest.failf "unknown rung %S" name
  | x :: rest -> if String.equal x name then 0 else 1 + index_of name rest

let run_scenario ?fault ~theta profile seed =
  match Guarded.estimate ?fault ~theta profile (Prng.create seed) with
  | Error fault -> Alcotest.failf "Error: %s" (Fault.error_to_string fault)
  | Ok g -> g

(* One guarded run under one fault: Ok, finite, in range, honest trace. *)
let check_guarded ~label ?fault ~theta profile seed =
  let g = run_scenario ?fault ~theta profile seed in
  let v = g.Csdl.Estimator.value in
  Alcotest.(check bool) (label ^ ": finite") true (Float.is_finite v);
  Alcotest.(check bool)
    (label ^ ": in [0, |A||B|]")
    true
    (v >= 0.0 && v <= upper_bound profile);
  (* the trace must name exactly the rungs tried and failed before the
     one that answered, in cascade order *)
  let k = index_of g.Csdl.Estimator.rung cascade_names in
  Alcotest.(check (list string))
    (label ^ ": trace names the downgrades")
    (firstn k cascade_names)
    (List.map (fun d -> d.Fault.rung) g.Csdl.Estimator.trace);
  g

let test_fault_matrix () =
  let scenarios = ref 0 in
  List.iteri
    (fun fi fault ->
      List.iteri
        (fun ti pair ->
          let profile = profile_of pair in
          List.iteri
            (fun hi theta ->
              for si = 0 to 7 do
                let seed = (fi * 100003) + (ti * 10007) + (hi * 1009) + si in
                let label =
                  Printf.sprintf "%s/pair%d/theta%.1f/seed%d"
                    (Fault_injection.to_string fault)
                    ti theta si
                in
                ignore (check_guarded ~label ~fault ~theta profile seed);
                incr scenarios
              done)
            [ 0.3; 0.7 ])
          table_pairs)
    Fault_injection.all;
  (* no fault at all rides along as a control *)
  List.iteri
    (fun ti pair ->
      let profile = profile_of pair in
      for si = 0 to 7 do
        ignore
          (check_guarded
             ~label:(Printf.sprintf "control/pair%d/seed%d" ti si)
             ~theta:0.5 profile (900001 + (ti * 131) + si));
        incr scenarios
      done)
    table_pairs;
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 scenarios (ran %d)" !scenarios)
    true (!scenarios >= 200)

let test_fault_determinism () =
  List.iter
    (fun fault ->
      let profile = profile_of (skewed, dense) in
      let once () = run_scenario ~fault ~theta:0.5 profile 42 in
      let g1 = once () and g2 = once () in
      Alcotest.(check (float 0.0))
        "same value" g1.Csdl.Estimator.value g2.Csdl.Estimator.value;
      Alcotest.(check string)
        "same rung" g1.Csdl.Estimator.rung g2.Csdl.Estimator.rung;
      Alcotest.(check int) "same trace length"
        (List.length g1.Csdl.Estimator.trace)
        (List.length g2.Csdl.Estimator.trace))
    Fault_injection.all

(* Corruptions the validators must catch kill every sampling rung, so the
   cascade lands on the independence fallback with a full trace. *)
let test_validator_faults_reach_fallback () =
  let profile = profile_of (dense, dense) in
  List.iter
    (fun fault ->
      for seed = 0 to 9 do
        let g =
          run_scenario ~fault ~theta:0.7 profile (7000 + seed)
        in
        Alcotest.(check string)
          (Fault_injection.to_string fault ^ ": fallback answers")
          Repro_baselines.Independent.name g.Csdl.Estimator.rung;
        Alcotest.(check int)
          (Fault_injection.to_string fault ^ ": all rungs in trace")
          3
          (List.length g.Csdl.Estimator.trace);
        Alcotest.(check bool)
          "trace renders" true
          (String.length (Fault.trace_to_string g.Csdl.Estimator.trace) > 0)
      done)
    [ Fault_injection.Corrupt_counts; Fault_injection.Nan_rates ]

let test_lp_failure_degrades_past_csdl () =
  let profile = profile_of (dense, dense) in
  for seed = 0 to 9 do
    let g =
      run_scenario ~fault:Fault_injection.Force_lp_failure ~theta:0.7 profile
        (8000 + seed)
    in
    (* both LP-based rungs must have failed; scaling or the fallback wins *)
    Alcotest.(check bool)
      "winner is LP-free" true
      (index_of g.Csdl.Estimator.rung cascade_names >= 2);
    Alcotest.(check bool)
      "at least the two CSDL rungs downgraded" true
      (List.length g.Csdl.Estimator.trace >= 2);
    List.iteri
      (fun i d ->
        if i < 2 then
          match d.Fault.fault with
          | Fault.Bad_input _ -> ()
          | f ->
              Alcotest.failf "expected Bad_input on CSDL rung, got %s"
                (Fault.error_to_string f))
      g.Csdl.Estimator.trace
  done

(* ---------------- degenerate inputs through the checked APIs ---------------- *)

let draw_synopsis profile seed =
  let spec = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff in
  let est = Csdl.Estimator.prepare ~sample_first:`A spec ~theta:0.5 profile in
  Csdl.Estimator.draw est (Prng.create seed)

let checked synopsis =
  Csdl.Estimate.run_checked_flat (Csdl.Synopsis_flat.of_synopsis synopsis)

let test_checked_zero_row_tables () =
  List.iter
    (fun pair ->
      let profile = profile_of pair in
      (match checked (draw_synopsis profile 1) with
      | Error (Fault.Empty_filtered_sample _) -> ()
      | Error f ->
          Alcotest.failf "expected Empty_filtered_sample, got %s"
            (Fault.error_to_string f)
      | Ok _ -> Alcotest.fail "expected Error on empty table");
      (* guarded still answers *)
      ignore (check_guarded ~label:"guarded empty" ~theta:0.5 profile 2))
    [ (empty, dense); (dense, empty); (empty, empty) ]

let test_checked_all_null_join_columns () =
  let profile = profile_of (nulls_only, dense) in
  Alcotest.(check int) "truth 0" 0 (Csdl.Profile.true_join_size profile);
  (match checked (draw_synopsis profile 3) with
  | Error (Fault.Empty_filtered_sample _) -> ()
  | Error f ->
      Alcotest.failf "expected Empty_filtered_sample, got %s"
        (Fault.error_to_string f)
  | Ok _ -> Alcotest.fail "expected Error on all-null join column");
  ignore (check_guarded ~label:"guarded all-null" ~theta:0.5 profile 4)

let test_checked_single_distinct_value_join () =
  let profile = profile_of (one_value, one_value) in
  Alcotest.(check int) "truth 81" 81 (Csdl.Profile.true_join_size profile);
  for seed = 0 to 4 do
    ignore
      (check_guarded ~label:"guarded single-value" ~theta:0.8 profile seed)
  done

let test_learn_checked_rejects_bad_arrays () =
  (match Csdl.Discrete_learning.learn_checked [||] with
  | Error (Fault.Bad_input _) -> ()
  | _ -> Alcotest.fail "empty counts: expected Bad_input");
  (match Csdl.Discrete_learning.learn_checked [| 0.0; 0.0; 0.0 |] with
  | Error (Fault.Bad_input _) -> ()
  | _ -> Alcotest.fail "all-zero counts: expected Bad_input");
  (match Csdl.Discrete_learning.learn_checked [| 3.0; Float.nan; 1.0 |] with
  | Error (Fault.Numeric { value; _ }) ->
      Alcotest.(check bool) "NaN reported" true (Float.is_nan value)
  | _ -> Alcotest.fail "NaN count: expected Numeric");
  (match Csdl.Discrete_learning.learn_checked [| 3.0; Float.infinity |] with
  | Error (Fault.Numeric _) -> ()
  | _ -> Alcotest.fail "infinite count: expected Numeric");
  (* the legacy entry point keeps absorbing the same inputs *)
  List.iter
    (fun counts ->
      ignore (Csdl.Discrete_learning.learn counts : Csdl.Discrete_learning.t))
    [ [||]; [| 0.0; 0.0 |]; [| 3.0; Float.nan; 1.0 |] ]

(* The observability layer's downgrade counter must agree exactly with the
   honest traces the guarded API returns: every downgrade recorded once. *)
let test_downgrade_counter_matches_traces () =
  let obs = Repro_obs.Obs.create () in
  let traced = ref 0 in
  List.iter
    (fun fault ->
      List.iter
        (fun pair ->
          let profile = profile_of pair in
          for seed = 0 to 4 do
            match
              Guarded.estimate ~obs ~fault ~theta:0.6 profile
                (Prng.create (60000 + seed))
            with
            | Error f -> Alcotest.failf "Error: %s" (Fault.error_to_string f)
            | Ok g -> traced := !traced + List.length g.Csdl.Estimator.trace
          done)
        table_pairs)
    Fault_injection.all;
  Alcotest.(check bool) "some downgrades occurred" true (!traced > 0);
  let counted =
    match Repro_obs.Obs.registry obs with
    | None -> Alcotest.fail "expected a live context"
    | Some registry ->
        List.fold_left
          (fun acc (name, _, point) ->
            match point with
            | Repro_obs.Metrics.P_counter v
              when String.equal name "estimate.downgrades.total" ->
                acc + v
            | _ -> acc)
          0
          (Repro_obs.Metrics.Registry.snapshot registry)
  in
  Alcotest.(check int)
    "estimate.downgrades.total equals summed trace lengths" !traced counted

let test_guarded_rejects_bad_theta () =
  let profile = profile_of (dense, dense) in
  List.iter
    (fun theta ->
      match Guarded.estimate ~theta profile (Prng.create 1) with
      | Error (Fault.Bad_input _) -> ()
      | Error f ->
          Alcotest.failf "expected Bad_input, got %s" (Fault.error_to_string f)
      | Ok _ -> Alcotest.failf "theta %f accepted" theta)
    [ 0.0; -0.5; 1.5; Float.nan; Float.infinity ]

let () =
  Alcotest.run "repro_robustness"
    [
      ( "fault matrix",
        [
          Alcotest.test_case "200+ randomized scenarios" `Quick
            test_fault_matrix;
          Alcotest.test_case "deterministic replay" `Quick
            test_fault_determinism;
          Alcotest.test_case "validator faults reach fallback" `Quick
            test_validator_faults_reach_fallback;
          Alcotest.test_case "LP failure degrades past CSDL" `Quick
            test_lp_failure_degrades_past_csdl;
          Alcotest.test_case "downgrade counter matches traces" `Quick
            test_downgrade_counter_matches_traces;
        ] );
      ( "degenerate inputs",
        [
          Alcotest.test_case "zero-row tables" `Quick
            test_checked_zero_row_tables;
          Alcotest.test_case "all-null join columns" `Quick
            test_checked_all_null_join_columns;
          Alcotest.test_case "single distinct value" `Quick
            test_checked_single_distinct_value_join;
          Alcotest.test_case "learn_checked bad arrays" `Quick
            test_learn_checked_rejects_bad_arrays;
          Alcotest.test_case "bad theta" `Quick test_guarded_rejects_bad_theta;
        ] );
    ]
