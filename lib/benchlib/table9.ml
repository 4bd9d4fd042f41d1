module Prng = Repro_util.Prng
module Pool = Repro_util.Pool
module Clock = Repro_util.Clock
module Summary = Repro_util.Summary
module Tpch = Repro_datagen.Tpch
open Repro_relation

type row = {
  dataset : string;
  truth : int;
  opt_qerror : float;
  cs2l_qerror : float;
}

type cell = {
  c_qerror : float;
  c_estimate : float;
  c_sample_tuples : float;
  c_wall : float;
  c_cpu : float;
  c_zero_runs : int;
}

let theta = 0.001

let run (config : Config.t) =
  let jobs = config.Config.jobs in
  let predicates =
    [ Predicate.Compare (Predicate.Gt, "c_acctbal", Value.Float 8000.0) ]
  in
  (* Stage 1 — per dataset: generation and the exact chain size, shared by
     both approach cells. *)
  let contexts =
    Pool.map ~obs:config.Config.obs ~jobs
      (fun (scale, z) ->
        let data = Tpch.generate ~scale ~z ~seed:config.Config.seed in
        let tables =
          {
            Csdl.Chain_n.links =
              [
                {
                  Csdl.Chain_n.table = data.Tpch.customer;
                  pk = "c_custkey";
                  fk = None;
                };
                {
                  Csdl.Chain_n.table = data.Tpch.orders;
                  pk = "o_orderkey";
                  fk = Some "o_custkey";
                };
              ];
            last = data.Tpch.lineitem;
            last_fk = "l_orderkey";
          }
        in
        let truth =
          float_of_int (Csdl.Chain_n.true_size ~predicates tables)
        in
        (scale, z, Tpch.dataset_name data, tables, truth))
      Table8.datasets
  in
  (* Stage 2 — one cell per (dataset, approach). *)
  let tasks =
    List.concat_map
      (fun context -> [ (context, "opt"); (context, "cs2l") ])
      contexts
  in
  let cells =
    Pool.map_array ~obs:config.Config.obs ~jobs
      (fun ((scale, z, _, tables, truth), tag) ->
        let prepared =
          match tag with
          | "opt" -> Csdl.Chain_n.prepare_opt ~theta tables
          | _ -> Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta tables
        in
        let prng =
          Prng.create_keyed ~seed:config.Config.seed
            (Printf.sprintf "table9/scale=%g/z=%g/%s" scale z tag)
        in
        let runs = config.Config.runs in
        let wall_total = ref 0.0
        and cpu_total = ref 0.0
        and sample_tuples = ref 0
        and zero_runs = ref 0 in
        let estimates =
          Array.init runs (fun _ ->
              let synopsis = Csdl.Chain_n.draw prepared prng in
              sample_tuples :=
                !sample_tuples + Csdl.Chain_n.synopsis_tuples synopsis;
              let estimate, span =
                Clock.time (fun () ->
                    Csdl.Chain_n.estimate ~predicates prepared synopsis)
              in
              wall_total := !wall_total +. span.Clock.wall_seconds;
              cpu_total := !cpu_total +. span.Clock.cpu_seconds;
              if estimate = 0.0 then incr zero_runs;
              estimate)
        in
        let qerrors =
          Array.map
            (fun estimate -> Repro_stats.Qerror.compute ~truth ~estimate)
            estimates
        in
        let per_run total = total /. float_of_int runs in
        {
          c_qerror = Summary.median qerrors;
          c_estimate = Summary.median estimates;
          c_sample_tuples = per_run (float_of_int !sample_tuples);
          c_wall = per_run !wall_total;
          c_cpu = per_run !cpu_total;
          c_zero_runs = !zero_runs;
        })
      (Array.of_list tasks)
  in
  List.mapi
    (fun i (_, _, dataset, _, truth) ->
      let record tag (c : cell) =
        Provenance.add config.Config.prov
          {
            Provenance.empty with
            Provenance.experiment = "table9";
            query = dataset;
            variant = tag;
            theta;
            jvd = Float.nan;
            sample_tuples = c.c_sample_tuples;
            truth;
            estimate = c.c_estimate;
            qerror = c.c_qerror;
            rung = "";
            downgrades = 0;
            runs = config.Config.runs;
            zero_runs = c.c_zero_runs;
            wall_seconds = c.c_wall;
            cpu_seconds = c.c_cpu;
            offline_wall_seconds = Float.nan;
          }
      in
      let opt = cells.(2 * i) and cs2l = cells.((2 * i) + 1) in
      record "opt" opt;
      record "cs2l" cs2l;
      {
        dataset;
        truth = int_of_float truth;
        opt_qerror = opt.c_qerror;
        cs2l_qerror = cs2l.c_qerror;
      })
    contexts

let print rows =
  Render.print_table
    ~title:
      "Table IX: chain join customer |><| orders |><| lineitem (c_acctbal > 8000, theta = 0.001)"
    ~header:[ "Dataset"; "J"; "CSDL-Opt"; "CS2L" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.dataset;
             string_of_int r.truth;
             Render.qerror_cell r.opt_qerror;
             Render.qerror_cell r.cs2l_qerror;
           ])
         rows)
    ()
