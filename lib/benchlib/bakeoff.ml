open Repro_relation
module Prng = Repro_util.Prng
module Summary = Repro_util.Summary
module Job = Repro_datagen.Job_workload
module Qerror = Repro_stats.Qerror
module Bootstrap = Repro_stats.Bootstrap
module Variance = Repro_stats.Variance
module E = Repro_baselines.Estimator_intf

type analytic = {
  an_estimate : float;  (** the single draw's estimate (= run 0's) *)
  an_variance : float;
  an_interval : Bootstrap.interval;
  an_covered : bool;
}

type cell = {
  query : string;
  estimator : string;
  theta : float;
  jvd : float;
  truth : float;
  runs : int;
  zero_runs : int;
  median_estimate : float;
  median_qerror : float;
  mean_wall_seconds : float;
  mean_cpu_seconds : float;
  offline_wall_seconds : float;
  synopsis_tuples : float;
  boot : Bootstrap.interval;
  boot_covered : bool;
  analytic : analytic option;
}

type row = {
  r_query : string;
  r_theta : float;
  r_truth : float;
  r_cells : (string * cell option) list;  (** estimator label, n/a = None *)
}

type t = { level : float; runs : int; rows : row list }

(* The fixed estimator roster: every bake-off prints these columns in this
   order, [None] cells marking methods that cannot answer the query (AGMS
   under predicates, join synopses on many-to-many joins). Labels equal
   each adapter's [name] — asserted during reassembly. *)
let roster :
    (string
    * (theta:float ->
      pred_a:Predicate.t ->
      pred_b:Predicate.t ->
      Csdl.Profile.t ->
      E.t option))
    list =
  let some f ~theta ~pred_a ~pred_b profile =
    Some (f ~theta ~pred_a ~pred_b profile)
  in
  let spec s ~theta ~pred_a ~pred_b profile =
    Some (E.csdl ~spec:s ~theta ~pred_a ~pred_b profile)
  in
  [
    ("CSDL-Opt", some (E.csdl ?spec:None));
    ("CSDL(1,diff)", spec (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff));
    ("CSDL(t,diff)", spec (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff));
    ("CS2L", spec Csdl.Spec.cs2l);
    ("independent", some E.independent);
    ("end-biased", some E.end_biased);
    ("join synopsis", E.join_synopsis);
    ("wander join", some E.wander);
    ("AGMS sketch", E.agms);
    ( "indep-prior",
      fun ~theta:_ ~pred_a:_ ~pred_b:_ profile ->
        Some (E.independence_prior profile) );
  ]

let covered (iv : Bootstrap.interval) truth =
  (not (Float.is_nan iv.Bootstrap.lower))
  && (not (Float.is_nan iv.Bootstrap.upper))
  && iv.Bootstrap.lower <= truth
  && truth <= iv.Bootstrap.upper

(* One (estimator x query x theta) cell: R seeded repetitions from the
   cell's own keyed streams, a percentile-bootstrap CI on the median
   estimate, and — for the correlated-sampling family — the analytic
   Sec. III interval from a single synopsis (run 0's stream, so its draw
   is run 0's draw). Pure apart from its own streams, so cells run on any
   domain in any order. *)
let cell_task ~seed ~runs ~level (q : Job.query) ~profile ~jvd ~truth ~theta
    (label, build) () =
  let pred_a = q.Job.a.Join.predicate and pred_b = q.Job.b.Join.predicate in
  match build ~theta ~pred_a ~pred_b profile with
  | None -> None
  | Some (est : E.t) ->
      let key tag =
        Printf.sprintf "bakeoff/%s/%s/theta=%g/%s" q.Job.name label theta tag
      in
      let run_key i = key (Printf.sprintf "run=%d" i) in
      let c =
        Cell.run ~label:est.E.name ~runs ~truth
          ~draw:(fun i -> Prng.create_keyed ~seed (run_key i))
          ~estimate:est.E.estimate ()
      in
      let boot =
        Bootstrap.median_interval ~level
          (Prng.create_keyed ~seed (key "bootstrap"))
          c.Cell.estimates
      in
      let analytic =
        match est.E.estimate_with_variance with
        | None -> None
        | Some estimate_with_variance ->
            let point, variance =
              estimate_with_variance (Prng.create_keyed ~seed (run_key 0))
            in
            let iv = Variance.normal_interval ~level ~point ~variance () in
            Some
              {
                an_estimate = point;
                an_variance = variance;
                an_interval = iv;
                an_covered = covered iv truth;
              }
      in
      Some
        {
          query = q.Job.name;
          estimator = est.E.name;
          theta;
          jvd;
          truth;
          runs;
          zero_runs = c.Cell.zero_runs;
          median_estimate = c.Cell.median_estimate;
          median_qerror = c.Cell.median_qerror;
          mean_wall_seconds = c.Cell.mean_wall_seconds;
          mean_cpu_seconds = c.Cell.mean_cpu_seconds;
          offline_wall_seconds = est.E.offline_wall_seconds;
          synopsis_tuples = est.E.synopsis_tuples;
          boot;
          boot_covered = covered boot truth;
          analytic;
        }

let run ?(level = 0.95) ?thetas (config : Config.t) data =
  let thetas = Option.value thetas ~default:config.Config.thetas in
  let seed = config.Config.seed in
  let runs = config.Config.runs in
  (* Stage 1, per query: the profile, jvd and exact size every roster
     cell shares. Stage 2: the flat (query x theta x estimator) grid. *)
  let rows =
    Grid.run ~obs:config.Config.obs ~jobs:config.Config.jobs
      (fun (q : Job.query) ->
        let profile =
          Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
            q.Job.b.Join.table q.Job.b.Join.column
        in
        let jvd = Job.query_jvd q in
        let truth = float_of_int (Job.true_size q) in
        List.map
          (fun theta ->
            ( (q.Job.name, theta, truth),
              List.map
                (cell_task ~seed ~runs ~level q ~profile ~jvd ~truth ~theta)
                roster ))
          thetas)
      (Job.two_table_queries data)
  in
  let rows =
    List.map
      (fun ((r_query, r_theta, r_truth), cells) ->
        {
          r_query;
          r_theta;
          r_truth;
          r_cells =
            List.map2
              (fun (label, _) cell ->
                (match cell with
                | Some c when c.estimator <> label ->
                    invalid_arg
                      (Printf.sprintf
                         "Bakeoff.run: roster label %S produced estimator %S"
                         label c.estimator)
                | _ -> ());
                (label, cell))
              roster cells;
        })
      rows
  in
  { level; runs; rows }

(* ---------------- provenance ---------------- *)

let flag b = if b then 1.0 else 0.0

let record_cells prov t =
  List.iter
    (fun row ->
      List.iter
        (fun (_, cell) ->
          match cell with
          | None -> ()
          | Some c ->
              Provenance.add prov
                {
                  Provenance.empty with
                  Provenance.experiment = "bakeoff";
                  query = c.query;
                  variant = c.estimator;
                  theta = c.theta;
                  jvd = c.jvd;
                  sample_tuples = c.synopsis_tuples;
                  truth = c.truth;
                  estimate = c.median_estimate;
                  qerror = c.median_qerror;
                  runs = c.runs;
                  zero_runs = c.zero_runs;
                  wall_seconds = c.mean_wall_seconds;
                  cpu_seconds = c.mean_cpu_seconds;
                  offline_wall_seconds = c.offline_wall_seconds;
                  ci_lower = c.boot.Bootstrap.lower;
                  ci_upper = c.boot.Bootstrap.upper;
                  ci_covered = flag c.boot_covered;
                  variance =
                    (match c.analytic with
                    | Some a -> a.an_variance
                    | None -> Float.nan);
                };
              (* the analytic interval is its own record stream, so the
                 artifact reports bootstrap and analytic coverage as
                 separate (experiment, variant) groups and the
                 --min-ci-coverage gate sees both *)
              match c.analytic with
              | None -> ()
              | Some a ->
                  Provenance.add prov
                    {
                      Provenance.empty with
                      Provenance.experiment = "bakeoff-analytic";
                      query = c.query;
                      variant = c.estimator;
                      theta = c.theta;
                      jvd = c.jvd;
                      sample_tuples = c.synopsis_tuples;
                      truth = c.truth;
                      estimate = a.an_estimate;
                      qerror =
                        Qerror.compute ~truth:c.truth
                          ~estimate:a.an_estimate;
                      runs = 1;
                      zero_runs = (if a.an_estimate = 0.0 then 1 else 0);
                      offline_wall_seconds = c.offline_wall_seconds;
                      ci_lower = a.an_interval.Bootstrap.lower;
                      ci_upper = a.an_interval.Bootstrap.upper;
                      ci_covered = flag a.an_covered;
                      variance = a.an_variance;
                    })
        row.r_cells)
    t.rows

(* ---------------- rendering ---------------- *)

let interval_cell (iv : Bootstrap.interval) =
  if Float.is_nan iv.Bootstrap.lower || Float.is_nan iv.Bootstrap.upper then
    "n/a"
  else
    let endpoint v =
      if v = Float.infinity then "inf" else Printf.sprintf "%.4g" v
    in
    Printf.sprintf "[%s, %s]"
      (endpoint iv.Bootstrap.lower)
      (endpoint iv.Bootstrap.upper)

let covered_cell b = if b then "y" else "MISS"

let print t =
  let level_pct = 100.0 *. t.level in
  Render.print_table
    ~title:
      (Printf.sprintf
         "Bake-off: all estimators, %d runs/cell, %g%% CIs (bootstrap on \
          the median; analytic from one synopsis)"
         t.runs level_pct)
    ~header:
      [
        "Query"; "theta"; "J"; "Estimator"; "est~"; "q-err"; "boot CI";
        "cov"; "analytic CI"; "cov"; "tuples";
      ]
    ~rows:
      (List.concat_map
         (fun row ->
           List.map
             (fun (label, cell) ->
               match cell with
               | None ->
                   [
                     row.r_query;
                     Printf.sprintf "%g" row.r_theta;
                     Printf.sprintf "%.0f" row.r_truth;
                     label;
                     "n/a"; "n/a"; "n/a"; "-"; "n/a"; "-"; "n/a";
                   ]
               | Some c ->
                   let analytic_iv, analytic_cov =
                     match c.analytic with
                     | None -> ("n/a", "-")
                     | Some a ->
                         (interval_cell a.an_interval,
                          covered_cell a.an_covered)
                   in
                   [
                     row.r_query;
                     Printf.sprintf "%g" row.r_theta;
                     Printf.sprintf "%.0f" row.r_truth;
                     label;
                     Printf.sprintf "%.6g" c.median_estimate;
                     Render.qerror_cell c.median_qerror;
                     interval_cell c.boot;
                     covered_cell c.boot_covered;
                     analytic_iv;
                     analytic_cov;
                     Printf.sprintf "%.0f" c.synopsis_tuples;
                   ])
             row.r_cells)
         t.rows)
    ();
  (* Per-estimator aggregate view: the numbers the artifact summaries
     carry, deterministic, so the jobs-invariance harness can compare it
     byte for byte. *)
  let by_estimator = Hashtbl.create 16 in
  List.iter
    (fun row ->
      List.iter
        (fun (label, cell) ->
          match cell with
          | None -> ()
          | Some c ->
              Hashtbl.replace by_estimator label
                (c
                :: Option.value ~default:[]
                     (Hashtbl.find_opt by_estimator label)))
        row.r_cells)
    t.rows;
  let coverage flags =
    match flags with
    | [] -> "n/a"
    | _ ->
        Printf.sprintf "%.2f"
          (Summary.mean (Array.of_list (List.map flag flags)))
  in
  Render.print_table
    ~title:"Bake-off coverage: fraction of cells whose CI contains J"
    ~header:
      [
        "Estimator"; "cells"; "median q-err"; "boot cov"; "analytic cov";
        "inf-fail"; "nan-fail";
      ]
    ~rows:
      (List.filter_map
         (fun (label, _) ->
           match Hashtbl.find_opt by_estimator label with
           | None -> None
           | Some cells ->
               let cells = List.rev cells in
               let qerrors =
                 Array.of_list (List.map (fun c -> c.median_qerror) cells)
               in
               Some
                 [
                   label;
                   string_of_int (List.length cells);
                   Render.qerror_cell (Summary.median qerrors);
                   coverage (List.map (fun c -> c.boot_covered) cells);
                   coverage
                     (List.filter_map
                        (fun c ->
                          Option.map (fun a -> a.an_covered) c.analytic)
                        cells);
                   string_of_int
                     (List.length
                        (List.filter
                           (fun c -> Qerror.is_zero_mismatch c.median_qerror)
                           cells));
                   string_of_int
                     (List.length
                        (List.filter
                           (fun c -> Qerror.is_garbage c.median_qerror)
                           cells));
                 ])
         roster)
    ()
