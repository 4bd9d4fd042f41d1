open Repro_relation
module Prng = Repro_util.Prng
module Pool = Repro_util.Pool
module Job = Repro_datagen.Job_workload

type comparison_row = {
  label : string;
  baseline : float;
  ablated : float;
}

let ablation_runs = 15

(* The median q-error of [ablation_runs] estimates on one [Prng.create
   seed] stream. *)
let median_qerror ?dl_config ?virtual_sample ?pred_a ?pred_b ~truth ~seed
    estimator =
  let prng = Prng.create seed in
  (Cell.run ~label:"" ~runs:ablation_runs ~truth
     ~draw:(fun _ -> Csdl.Estimator.draw estimator prng)
     ~estimate:
       (Csdl.Estimator.estimate ?dl_config ?virtual_sample ?pred_a ?pred_b
          estimator)
     ())
    .Cell.median_qerror

let query_qerror ?dl_config ?virtual_sample ~spec ~theta ~seed
    (q : Job.query) =
  let profile =
    Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
      q.Job.b.Join.table q.Job.b.Join.column
  in
  median_qerror ?dl_config ?virtual_sample ~pred_a:q.Job.a.Join.predicate
    ~pred_b:q.Job.b.Join.predicate
    ~truth:(float_of_int (Job.true_size q))
    ~seed
    (Csdl.Estimator.prepare spec ~theta profile)

let pick names queries =
  List.filter (fun (q : Job.query) -> List.mem q.Job.name names) queries

(* Eq. 6 on/off for CSDL(1,diff). The budget must be comfortably above
   the first-level sentry floor so the per-value q_v actually spread —
   hence theta = 0.05 and queries whose |V| is modest. *)
let virtual_sample (config : Config.t) data =
  let queries =
    pick [ "Q1a1"; "Q1b1"; "Q2a2"; "Q2d1" ] (Job.two_table_queries data)
  in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff in
  Pool.map ~obs:config.Config.obs ~jobs:config.Config.jobs
    (fun (q : Job.query) ->
      {
        label = q.Job.name;
        baseline =
          query_qerror ~spec ~theta:0.05 ~seed:config.Config.seed q;
        ablated =
          query_qerror ~virtual_sample:false ~spec ~theta:0.05
            ~seed:config.Config.seed q;
      })
    queries

(* Sentry on/off for CSDL(1,theta) on small-jvd queries: without sentries,
   rare-but-heavy join values vanish from the sample (the "all or nothing"
   pathology the sentry was introduced against). *)
let sentry (config : Config.t) data =
  let queries =
    pick [ "Q1a1"; "Q1b1"; "Q1b4" ] (Job.two_table_queries data)
  in
  let with_sentry = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let without_sentry =
    { with_sentry with Csdl.Spec.sentry = false; name = "CSDL(1,t)-nosentry" }
  in
  Pool.map ~obs:config.Config.obs ~jobs:config.Config.jobs
    (fun (q : Job.query) ->
      {
        label = q.Job.name;
        baseline =
          query_qerror ~spec:with_sentry ~theta:0.001
            ~seed:config.Config.seed q;
        ablated =
          query_qerror ~spec:without_sentry ~theta:0.001
            ~seed:config.Config.seed q;
      })
    queries

(* Paper's jvd-threshold dispatch vs. the budget-aware rule on the skewed
   TPC-H nationkey join whose jvd straddles the threshold. *)
let dispatch (config : Config.t) =
  Pool.map ~obs:config.Config.obs ~jobs:config.Config.jobs
    (fun (scale, z) ->
      let data =
        Repro_datagen.Tpch.generate ~scale ~z ~seed:config.Config.seed
      in
      let profile =
        Csdl.Profile.of_tables data.Repro_datagen.Tpch.customer "c_nationkey"
          data.Repro_datagen.Tpch.supplier "s_nationkey"
      in
      let truth = float_of_int (Csdl.Profile.true_join_size profile) in
      let median dispatch =
        median_qerror ~truth ~seed:config.Config.seed
          (Csdl.Opt.prepare ~dispatch ~theta:0.01 profile)
      in
      {
        label = Repro_datagen.Tpch.dataset_name data;
        baseline = median `Budget_aware;
        ablated = median `Jvd_threshold;
      })
    Table8.datasets

(* Grid resolution of the DL probability mesh: the geometric-grid
   substitution claims quality is insensitive to coarsening. *)
let grid_resolution (config : Config.t) data =
  let query =
    List.find
      (fun (q : Job.query) -> q.Job.name = "Q1b1")
      (Job.two_table_queries data)
  in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff in
  let fine =
    { Csdl.Discrete_learning.default_config with linear_grid_points = 2000 }
  in
  Pool.map ~obs:config.Config.obs ~jobs:config.Config.jobs
    (fun points ->
      let coarse =
        { Csdl.Discrete_learning.default_config with linear_grid_points = points }
      in
      {
        label = Printf.sprintf "linear grid %d vs 2000" points;
        baseline =
          query_qerror ~dl_config:fine ~spec ~theta:0.01
            ~seed:config.Config.seed query;
        ablated =
          query_qerror ~dl_config:coarse ~spec ~theta:0.01
            ~seed:config.Config.seed query;
      })
    [ 400; 100; 25 ]

let print ~title ~with_label ~without_label rows =
  Render.print_table ~title
    ~header:[ "Case"; with_label; without_label ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.label;
             Render.qerror_cell r.baseline;
             Render.qerror_cell r.ablated;
           ])
         rows)
    ()

let run_all config data =
  print
    ~title:"Ablation: Eq. 6 virtual sample (CSDL(1,diff), theta = 0.05)"
    ~with_label:"with virtual" ~without_label:"raw counts"
    (virtual_sample config data);
  print ~title:"Ablation: sentry technique (CSDL(1,t), theta = 0.001)"
    ~with_label:"with sentry" ~without_label:"no sentry"
    (sentry config data);
  print
    ~title:"Ablation: CSDL-Opt dispatch rule (TPC-H nationkey, theta = 0.01)"
    ~with_label:"budget-aware" ~without_label:"jvd threshold"
    (dispatch config);
  print
    ~title:"Ablation: DL probability-grid resolution (Q1b1, theta = 0.01)"
    ~with_label:"fine (2000)" ~without_label:"coarser"
    (grid_resolution config data)
