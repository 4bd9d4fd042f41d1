(* Tests for the join-order optimizer substrate. *)

open Repro_relation
open Repro_planner
module Prng = Repro_util.Prng

let schema name =
  Schema.make [ (name ^ "_k", Schema.T_int); (name ^ "_x", Schema.T_int) ]

let table name rows_spec =
  Table.of_rows (schema name)
    (List.concat_map
       (fun (v, m) ->
         List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       rows_spec)

let rel name rows_spec =
  { Query.name; table = table name rows_spec; predicate = Predicate.True }

let edge l r = { Query.left = l; left_column = l ^ "_k"; right = r; right_column = r ^ "_k" }

(* A 3-relation chain: a -- b -- c, all joining on the same key domain. *)
let chain_query () =
  Query.make
    [
      rel "a" [ (1, 4); (2, 2) ];
      rel "b" [ (1, 3); (2, 5); (3, 1) ];
      rel "c" [ (1, 2); (3, 7) ];
    ]
    [ edge "a" "b"; edge "b" "c" ]

(* ------------------------------------------------------------------ *)
(* Query                                                               *)
(* ------------------------------------------------------------------ *)

let test_query_validation () =
  Alcotest.check_raises "single relation"
    (Invalid_argument "Query.make: need at least two relations") (fun () ->
      ignore (Query.make [ rel "a" [ (1, 1) ] ] []));
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Query.make: duplicate relation \"a\"") (fun () ->
      ignore (Query.make [ rel "a" [ (1, 1) ]; rel "a" [ (1, 1) ] ] []));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Query.make: join graph is not connected") (fun () ->
      ignore (Query.make [ rel "a" [ (1, 1) ]; rel "b" [ (1, 1) ] ] []));
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Query.make: relation \"b\" has no column \"b_zzz\"")
    (fun () ->
      ignore
        (Query.make
           [ rel "a" [ (1, 1) ]; rel "b" [ (1, 1) ] ]
           [ { Query.left = "a"; left_column = "a_k"; right = "b"; right_column = "b_zzz" } ]))

let test_query_filtered_cardinality () =
  let q =
    Query.make
      [
        {
          Query.name = "a";
          table = table "a" [ (1, 10) ];
          predicate = Predicate.Compare (Predicate.Lt, "a_x", Value.Int 4);
        };
        rel "b" [ (1, 2) ];
      ]
      [ edge "a" "b" ]
  in
  Alcotest.(check int) "filtered" 4 (Query.filtered_cardinality q 0);
  Alcotest.(check int) "unfiltered" 2 (Query.filtered_cardinality q 1)

let test_query_edges_within () =
  let q = chain_query () in
  Alcotest.(check int) "full set has both edges" 2
    (List.length (Query.edges_within q [ 0; 1; 2 ]));
  Alcotest.(check int) "a-c alone share no edge" 0
    (List.length (Query.edges_within q [ 0; 2 ]))

(* ------------------------------------------------------------------ *)
(* Cardinality                                                         *)
(* ------------------------------------------------------------------ *)

let test_exact_pairwise_cardinality () =
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  (* a |><| b = 4*3 + 2*5 = 22 *)
  Alcotest.(check (float 1e-6)) "pair a-b exact" 22.0
    (Cardinality.subset_cardinality model [ 0; 1 ]);
  (* b |><| c = 3*2 + 1*7 = 13 *)
  Alcotest.(check (float 1e-6)) "pair b-c exact" 13.0
    (Cardinality.subset_cardinality model [ 1; 2 ])

let test_singleton_cardinality () =
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  Alcotest.(check (float 1e-6)) "singleton = base size" 6.0
    (Cardinality.subset_cardinality model [ 0 ])

let test_three_way_independence_combination () =
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  (* card(abc) = |a||b||c| * sel(ab) * sel(bc)
     = 6*9*9 * (22/54) * (13/81) *)
  let expected = 6.0 *. 9.0 *. 9.0 *. (22.0 /. 54.0) *. (13.0 /. 81.0) in
  Alcotest.(check (float 1e-6)) "triple" expected
    (Cardinality.subset_cardinality model [ 0; 1; 2 ])

let test_custom_estimator_model () =
  let q = chain_query () in
  let model = Cardinality.of_edge_estimator q (fun _ -> 10.0) in
  (* sel = 10 / (|a| |b|) etc. *)
  Alcotest.(check (float 1e-6)) "custom pair" 10.0
    (Cardinality.subset_cardinality model [ 0; 1 ])

let test_csdl_model_reasonable () =
  let q = chain_query () in
  let exact = Cardinality.of_exact q in
  let sampled = Cardinality.of_csdl_opt ~theta:1.0 ~seed:7 q in
  (* at theta=1 the diff variants still sample; allow a loose band *)
  let e = Cardinality.subset_cardinality exact [ 0; 1 ] in
  let s = Cardinality.subset_cardinality sampled [ 0; 1 ] in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.1f within 4x of exact %.1f" s e)
    true
    (s > e /. 4.0 && s < e *. 4.0)

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_optimizer_picks_cheaper_side () =
  (* chain a-b-c where (b |><| c) is much smaller than (a |><| b): the
     C_out-optimal left-deep plan starts with the b-c join. *)
  let q =
    Query.make
      [
        rel "a" [ (1, 50) ];
        rel "b" [ (1, 40); (9, 1) ];
        rel "c" [ (9, 2) ];
      ]
      [ edge "a" "b"; edge "b" "c" ]
  in
  let model = Cardinality.of_exact q in
  let plan, cost = Optimizer.optimize q model in
  (* join sizes: ab = 2000, bc = 2; abc via independence. The inner join
     must be {b, c} (operand order is arbitrary). *)
  (match plan with
  | Optimizer.Join (inner, Optimizer.Scan 0)
  | Optimizer.Join (Optimizer.Scan 0, inner) ->
      Alcotest.(check (list int)) "inner join is b-c" [ 1; 2 ]
        (List.sort compare (Optimizer.relations_of inner))
  | _ -> Alcotest.failf "unexpected plan %s" (Optimizer.to_string q plan));
  Alcotest.(check bool) "cost positive" true (cost > 0.0)

let test_optimizer_covers_all_relations () =
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  let plan, _ = Optimizer.optimize q model in
  Alcotest.(check (list int)) "all relations once" [ 0; 1; 2 ]
    (List.sort compare (Optimizer.relations_of plan))

let test_optimizer_no_cartesian_products () =
  (* in a chain a-b-c the pair (a,c) is disconnected; the optimal plan
     must never join them directly *)
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  let plan, _ = Optimizer.optimize q model in
  let rec check = function
    | Optimizer.Scan _ -> ()
    | Optimizer.Join (l, r) as node ->
        let members = List.sort compare (Optimizer.relations_of node) in
        if members = [ 0; 2 ] then Alcotest.fail "cartesian product used";
        check l;
        check r
  in
  check plan

let test_optimizer_cost_matches_cost_under () =
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  let plan, cost = Optimizer.optimize q model in
  Alcotest.(check (float 1e-6)) "self-consistent" cost
    (Optimizer.cost_under model plan)

let test_optimizer_optimal_among_alternatives () =
  (* brute-force check on 3 relations: the two left-deep alternatives *)
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  let _, cost = Optimizer.optimize q model in
  let alt1 = Optimizer.Join (Optimizer.Join (Scan 0, Scan 1), Scan 2) in
  let alt2 = Optimizer.Join (Optimizer.Join (Scan 1, Scan 2), Scan 0) in
  Alcotest.(check bool) "beats alt1" true
    (cost <= Optimizer.cost_under model alt1 +. 1e-9);
  Alcotest.(check bool) "beats alt2" true
    (cost <= Optimizer.cost_under model alt2 +. 1e-9)

let test_plan_regret_of_bad_model () =
  (* a model that inverts the edge sizes leads the optimizer to a plan
     whose true cost is at least the optimal true cost *)
  let q =
    Query.make
      [
        rel "a" [ (1, 50) ];
        rel "b" [ (1, 40); (9, 1) ];
        rel "c" [ (9, 2) ];
      ]
      [ edge "a" "b"; edge "b" "c" ]
  in
  let exact = Cardinality.of_exact q in
  let inverted =
    Cardinality.of_edge_estimator q (fun e ->
        if e.Query.left = "a" then 1.0 else 100000.0)
  in
  let optimal_plan, _ = Optimizer.optimize q exact in
  let misled_plan, _ = Optimizer.optimize q inverted in
  let regret =
    Optimizer.cost_under exact misled_plan
    /. Optimizer.cost_under exact optimal_plan
  in
  Alcotest.(check bool)
    (Printf.sprintf "regret %.1f >= 1" regret)
    true (regret >= 1.0);
  Alcotest.(check bool) "bad model changed the plan" true
    (Optimizer.to_string q misled_plan <> Optimizer.to_string q optimal_plan)

(* five relations in a star: fact joins four dims; make sure DP scales and
   stays connected *)
let test_optimizer_five_relation_star () =
  let fact_schema =
    Schema.make
      [ ("f1", Schema.T_int); ("f2", Schema.T_int); ("f3", Schema.T_int);
        ("f4", Schema.T_int) ]
  in
  let prng = Prng.create 3 in
  let fact =
    Table.create fact_schema
      (Array.init 100 (fun _ ->
           Array.init 4 (fun _ -> Value.Int (1 + Prng.int prng 10))))
  in
  let dim name =
    {
      Query.name;
      table = table name (List.init 10 (fun i -> (i + 1, 1)));
      predicate = Predicate.True;
    }
  in
  let q =
    Query.make
      ({ Query.name = "f"; table = fact; predicate = Predicate.True }
      :: List.map dim [ "d1"; "d2"; "d3"; "d4" ])
      (List.mapi
         (fun i d ->
           {
             Query.left = "f";
             left_column = Printf.sprintf "f%d" (i + 1);
             right = d;
             right_column = d ^ "_k";
           })
         [ "d1"; "d2"; "d3"; "d4" ])
  in
  let model = Cardinality.of_exact q in
  let plan, cost = Optimizer.optimize q model in
  Alcotest.(check int) "covers 5 relations" 5
    (List.length (Optimizer.relations_of plan));
  Alcotest.(check bool) "finite cost" true (Float.is_finite cost)

(* ------------------------------------------------------------------ *)
(* Exact sizes                                                         *)
(* ------------------------------------------------------------------ *)

let test_executor_vs_independence_model () =
  (* the independence-combined model and the exact join count agree
     exactly on pairs *)
  let q = chain_query () in
  let model = Cardinality.of_exact q in
  let side i =
    let r = Query.relation q i in
    Join.filtered r.Query.table (r.Query.name ^ "_k") r.Query.predicate
  in
  Alcotest.(check (float 1e-6)) "pair agreement"
    (Cardinality.subset_cardinality model [ 1; 2 ])
    (float_of_int (Join.pair_count (side 1) (side 2)))

let () =
  Alcotest.run "repro_planner"
    [
      ( "query",
        [
          Alcotest.test_case "validation" `Quick test_query_validation;
          Alcotest.test_case "filtered cardinality" `Quick test_query_filtered_cardinality;
          Alcotest.test_case "edges within" `Quick test_query_edges_within;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "exact pairwise" `Quick test_exact_pairwise_cardinality;
          Alcotest.test_case "singleton" `Quick test_singleton_cardinality;
          Alcotest.test_case "three-way combination" `Quick
            test_three_way_independence_combination;
          Alcotest.test_case "custom estimator" `Quick test_custom_estimator_model;
          Alcotest.test_case "csdl model" `Quick test_csdl_model_reasonable;
        ] );
      ( "executor",
        [
          Alcotest.test_case "agrees with model on pairs" `Quick
            test_executor_vs_independence_model;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "picks cheaper side" `Quick test_optimizer_picks_cheaper_side;
          Alcotest.test_case "covers relations" `Quick test_optimizer_covers_all_relations;
          Alcotest.test_case "no cartesian products" `Quick
            test_optimizer_no_cartesian_products;
          Alcotest.test_case "cost self-consistent" `Quick
            test_optimizer_cost_matches_cost_under;
          Alcotest.test_case "optimal among alternatives" `Quick
            test_optimizer_optimal_among_alternatives;
          Alcotest.test_case "plan regret" `Quick test_plan_regret_of_bad_model;
          Alcotest.test_case "five-relation star" `Quick test_optimizer_five_relation_star;
        ] );
    ]
