(* Integration tests for chain and star join estimation (Section V): the
   paper's 3-table chain through [Chain_n] at k = 3, and star joins. *)

open Repro_relation
module Prng = Repro_util.Prng

(* Hand-built PK-FK chain: A(pk) <- B(fk, pk) <- C(fk). *)

let schema_a = Schema.make [ ("pk", Schema.T_int); ("x", Schema.T_int) ]
let schema_b =
  Schema.make [ ("pk", Schema.T_int); ("fk", Schema.T_int); ("y", Schema.T_int) ]
let schema_c =
  Schema.make [ ("fk", Schema.T_int); ("z", Schema.T_int) ]

(* The paper's 3-table chain A |><| B |><| C as a [Chain_n] at k = 3. *)
let chain3 a b c =
  {
    Csdl.Chain_n.links =
      [
        { Csdl.Chain_n.table = a; pk = "pk"; fk = None };
        { Csdl.Chain_n.table = b; pk = "pk"; fk = Some "fk" };
      ];
    last = c;
    last_fk = "fk";
  }

let mk_chain ~n_a ~n_b ~c_per_b ~seed =
  let prng = Prng.create seed in
  let a =
    Table.create schema_a
      (Array.init n_a (fun i -> [| Value.Int (i + 1); Value.Int (i mod 10) |]))
  in
  let b =
    Table.create schema_b
      (Array.init n_b (fun i ->
           [|
             Value.Int (i + 1);
             Value.Int (1 + Prng.int prng n_a);
             Value.Int (i mod 7);
           |]))
  in
  let rows_c =
    Array.init (n_b * c_per_b) (fun i ->
        [| Value.Int (1 + Prng.int prng n_b); Value.Int (i mod 5) |])
  in
  (a, b, Table.create schema_c rows_c)

let chain_mid = lazy (mk_chain ~n_a:50 ~n_b:200 ~c_per_b:4 ~seed:3)
let chain_mid_tables =
  lazy
    (let a, b, c = Lazy.force chain_mid in
     chain3 a b c)

(* Ground truth by nested loops over the three tables. *)
let nested_loop_count ?(pass_a = fun _ -> true) ?(pass_b = fun _ -> true)
    ?(pass_c = fun _ -> true) (a, b, c) =
  let col t name row = row.(Table.column_index t name) in
  Table.fold
    (fun acc row_c ->
      if not (pass_c row_c) then acc
      else
        Table.fold
          (fun acc row_b ->
            if
              pass_b row_b
              && Value.equal (col c "fk" row_c) (col b "pk" row_b)
            then
              Table.fold
                (fun acc row_a ->
                  if
                    pass_a row_a
                    && Value.equal (col b "fk" row_b) (col a "pk" row_a)
                  then acc + 1
                  else acc)
                acc a
            else acc)
          acc b)
    0 c

let test_chain_true_size_matches_nested_loop () =
  Alcotest.(check int) "true_size consistent"
    (nested_loop_count (Lazy.force chain_mid))
    (Csdl.Chain_n.true_size (Lazy.force chain_mid_tables))

let test_chain_scaling_exact_at_theta_one () =
  let t = Lazy.force chain_mid_tables in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 1) in
  let estimate = Csdl.Chain_n.estimate prepared synopsis in
  Alcotest.(check (float 1e-6)) "exact"
    (float_of_int (Csdl.Chain_n.true_size t))
    estimate

let test_chain_scaling_exact_with_predicates () =
  let t = Lazy.force chain_mid_tables in
  let predicates =
    [
      Predicate.Compare (Predicate.Lt, "x", Value.Int 5);
      Predicate.Compare (Predicate.Lt, "y", Value.Int 4);
      Predicate.Compare (Predicate.Lt, "z", Value.Int 3);
    ]
  in
  let truth = Csdl.Chain_n.true_size ~predicates t in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 2) in
  let estimate = Csdl.Chain_n.estimate ~predicates prepared synopsis in
  Alcotest.(check (float 1e-6)) "filtered exact" (float_of_int truth) estimate

let test_chain_dl_reasonable () =
  let t = Lazy.force chain_mid_tables in
  let truth = float_of_int (Csdl.Chain_n.true_size t) in
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.3 t in
  let prng = Prng.create 4 in
  let qs =
    Array.init 15 (fun _ ->
        let synopsis = Csdl.Chain_n.draw prepared prng in
        let estimate = Csdl.Chain_n.estimate prepared synopsis in
        Repro_stats.Qerror.compute ~truth ~estimate)
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f < 3" median)
    true (median < 3.0)

let test_chain_opt_dispatch () =
  let t = Lazy.force chain_mid_tables in
  let jvd = Csdl.Chain_n.jvd t in
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.3 t in
  let expected = if jvd < 0.001 then "CSDL(1,diff)" else "CSDL(t,diff)" in
  Alcotest.(check string) "variant follows jvd" expected
    (Csdl.Spec.to_string (Csdl.Chain_n.spec prepared))

let test_chain_jvd_value () =
  let _, b, c = Lazy.force chain_mid in
  let expected = Join.jvd b "pk" c "fk" in
  Alcotest.(check (float 1e-12)) "jvd = B-C join density" expected
    (Csdl.Chain_n.jvd (Lazy.force chain_mid_tables))

let test_chain_dangling_fk_contributes_zero () =
  (* C rows pointing at nonexistent B keys must not contribute. *)
  let a = Table.create schema_a [| [| Value.Int 1; Value.Int 0 |] |] in
  let b =
    Table.create schema_b [| [| Value.Int 10; Value.Int 1; Value.Int 0 |] |]
  in
  let c =
    Table.create schema_c
      [|
        [| Value.Int 10; Value.Int 0 |];
        [| Value.Int 999; Value.Int 0 |] (* dangling *);
      |]
  in
  let t = chain3 a b c in
  Alcotest.(check int) "truth" 1 (Csdl.Chain_n.true_size t);
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 5) in
  Alcotest.(check (float 1e-6)) "estimate" 1.0
    (Csdl.Chain_n.estimate prepared synopsis)

let test_chain_synopsis_bounded () =
  let t = Lazy.force chain_mid_tables in
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.1 t in
  let prng = Prng.create 6 in
  let total = ref 0 in
  let runs = 50 in
  for _ = 1 to runs do
    total :=
      !total + Csdl.Chain_n.synopsis_tuples (Csdl.Chain_n.draw prepared prng)
  done;
  let mean = float_of_int !total /. float_of_int runs in
  let data_size =
    let a, b, c = Lazy.force chain_mid in
    Table.cardinality a + Table.cardinality b + Table.cardinality c
  in
  (* Sentries and PK witnesses add a per-value floor, so allow 3x. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within 3x of budget %.1f" mean
       (0.1 *. float_of_int data_size))
    true
    (mean < 3.0 *. 0.1 *. float_of_int data_size)

(* ------------------------------------------------------------------ *)
(* Star joins                                                          *)
(* ------------------------------------------------------------------ *)

let star_schema_fact =
  Schema.make
    [ ("fk1", Schema.T_int); ("fk2", Schema.T_int); ("measure", Schema.T_int) ]

let star_schema_dim =
  Schema.make [ ("pk", Schema.T_int); ("attr", Schema.T_int) ]

let mk_star ~n_fact ~n_d1 ~n_d2 ~seed =
  let prng = Prng.create seed in
  let fact =
    Table.create star_schema_fact
      (Array.init n_fact (fun i ->
           [|
             Value.Int (1 + Prng.int prng n_d1);
             Value.Int (1 + Prng.int prng n_d2);
             Value.Int (i mod 100);
           |]))
  in
  let dim n =
    Table.create star_schema_dim
      (Array.init n (fun i -> [| Value.Int (i + 1); Value.Int (i mod 10) |]))
  in
  {
    Csdl.Star.fact;
    dimensions =
      [
        { Csdl.Star.table = dim n_d1; pk = "pk"; fk = "fk1" };
        { Csdl.Star.table = dim n_d2; pk = "pk"; fk = "fk2" };
      ];
  }

let star_mid = lazy (mk_star ~n_fact:400 ~n_d1:30 ~n_d2:20 ~seed:8)

let test_star_true_size_unfiltered () =
  (* Every fact row matches exactly one row in each dimension. *)
  let t = Lazy.force star_mid in
  Alcotest.(check int) "truth = |fact|" 400 (Csdl.Star.true_size t)

let test_star_scaling_exact_at_theta_one () =
  let t = Lazy.force star_mid in
  let pred_dims =
    [
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 5);
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 7);
    ]
  in
  let truth = Csdl.Star.true_size ~pred_dims t in
  let prepared = Csdl.Star.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Star.draw prepared (Prng.create 9) in
  let estimate = Csdl.Star.estimate ~pred_dims prepared synopsis in
  Alcotest.(check (float 1e-6)) "exact" (float_of_int truth) estimate

let test_star_dl_reasonable () =
  let t = Lazy.force star_mid in
  let pred_dims = [ Predicate.Compare (Predicate.Lt, "attr", Value.Int 5) ] in
  let truth = float_of_int (Csdl.Star.true_size ~pred_dims t) in
  let prepared = Csdl.Star.prepare_opt ~theta:0.3 t in
  let prng = Prng.create 10 in
  let qs =
    Array.init 15 (fun _ ->
        let synopsis = Csdl.Star.draw prepared prng in
        let estimate = Csdl.Star.estimate ~pred_dims prepared synopsis in
        Repro_stats.Qerror.compute ~truth ~estimate)
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f < 3" median)
    true (median < 3.0)

let test_star_fact_predicate () =
  let t = Lazy.force star_mid in
  let pred_fact = Predicate.Compare (Predicate.Lt, "measure", Value.Int 50) in
  let truth = Csdl.Star.true_size ~pred_fact t in
  Alcotest.(check int) "half the fact rows" 200 truth;
  let prepared = Csdl.Star.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Star.draw prepared (Prng.create 11) in
  Alcotest.(check (float 1e-6)) "exact" (float_of_int truth)
    (Csdl.Star.estimate ~pred_fact prepared synopsis)

let test_star_requires_dimension () =
  let t = Lazy.force star_mid in
  Alcotest.check_raises "no dims"
    (Invalid_argument "Star: at least one dimension required") (fun () ->
      ignore
        (Csdl.Star.prepare Csdl.Spec.cs2l ~theta:0.5
           { t with Csdl.Star.dimensions = [] }))

let test_star_missing_dim_pred_defaults_true () =
  let t = Lazy.force star_mid in
  let prepared = Csdl.Star.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Star.draw prepared (Prng.create 12) in
  Alcotest.(check (float 1e-6)) "padded predicates"
    (Csdl.Star.estimate prepared synopsis)
    (Csdl.Star.estimate ~pred_dims:[ Predicate.True ] prepared synopsis)

(* ------------------------------------------------------------------ *)
(* TPC-H chain (the Table IX shape)                                    *)
(* ------------------------------------------------------------------ *)

let test_tpch_chain_runs () =
  let d = Repro_datagen.Tpch.generate ~scale:0.01 ~z:1.0 ~seed:13 in
  let t =
    {
      Csdl.Chain_n.links =
        [
          {
            Csdl.Chain_n.table = d.Repro_datagen.Tpch.customer;
            pk = "c_custkey";
            fk = None;
          };
          {
            Csdl.Chain_n.table = d.Repro_datagen.Tpch.orders;
            pk = "o_orderkey";
            fk = Some "o_custkey";
          };
        ];
      last = d.Repro_datagen.Tpch.lineitem;
      last_fk = "l_orderkey";
    }
  in
  let predicates =
    [ Predicate.Compare (Predicate.Gt, "c_acctbal", Value.Float 8000.0) ]
  in
  let truth = Csdl.Chain_n.true_size ~predicates t in
  Alcotest.(check bool) "truth positive" true (truth > 0);
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.2 t in
  let prng = Prng.create 14 in
  let estimates =
    Array.init 11 (fun _ ->
        let s = Csdl.Chain_n.draw prepared prng in
        Csdl.Chain_n.estimate ~predicates prepared s)
  in
  let qs =
    Array.map
      (fun e -> Repro_stats.Qerror.compute ~truth:(float_of_int truth) ~estimate:e)
      estimates
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f finite and < 5" median)
    true
    (median < 5.0)

let () =
  Alcotest.run "csdl_multi_table"
    [
      ( "chain",
        [
          Alcotest.test_case "true size consistent" `Quick
            test_chain_true_size_matches_nested_loop;
          Alcotest.test_case "scaling exact theta=1" `Quick
            test_chain_scaling_exact_at_theta_one;
          Alcotest.test_case "filtered exact theta=1" `Quick
            test_chain_scaling_exact_with_predicates;
          Alcotest.test_case "DL reasonable" `Slow test_chain_dl_reasonable;
          Alcotest.test_case "opt dispatch" `Quick test_chain_opt_dispatch;
          Alcotest.test_case "jvd" `Quick test_chain_jvd_value;
          Alcotest.test_case "dangling fk" `Quick test_chain_dangling_fk_contributes_zero;
          Alcotest.test_case "synopsis bounded" `Slow test_chain_synopsis_bounded;
        ] );
      ( "star",
        [
          Alcotest.test_case "true size" `Quick test_star_true_size_unfiltered;
          Alcotest.test_case "scaling exact theta=1" `Quick
            test_star_scaling_exact_at_theta_one;
          Alcotest.test_case "DL reasonable" `Slow test_star_dl_reasonable;
          Alcotest.test_case "fact predicate" `Quick test_star_fact_predicate;
          Alcotest.test_case "requires dimension" `Quick test_star_requires_dimension;
          Alcotest.test_case "predicate padding" `Quick
            test_star_missing_dim_pred_defaults_true;
        ] );
      ( "tpch",
        [ Alcotest.test_case "chain on TPC-H" `Slow test_tpch_chain_runs ] );
    ]
