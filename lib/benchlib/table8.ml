module Prng = Repro_util.Prng
module Tpch = Repro_datagen.Tpch

type row = {
  dataset : string;
  theta : float;
  truth : int;
  jvd : float;
  opt_qerror : float;
  opt_variance : float;
  one_diff_qerror : float;
  one_diff_variance : float;
  cs2l_qerror : float;
  cs2l_variance : float;
}

let datasets = [ (1.0, 4.0); (0.1, 4.0); (1.0, 2.0); (0.1, 2.0) ]

let approaches = [ "opt"; "1diff"; "cs2l" ]

let run (config : Config.t) =
  (* Stage 1, per dataset: generation, the profile and the exact join
     size its cells share. Stage 2, per (dataset, theta, approach): one
     cell on its own keyed stream. *)
  let rows =
    Grid.run ~obs:config.Config.obs ~jobs:config.Config.jobs
      (fun (scale, z) ->
        let data = Tpch.generate ~scale ~z ~seed:config.Config.seed in
        let dataset = Tpch.dataset_name data in
        let profile =
          Csdl.Profile.of_tables data.Tpch.customer "c_nationkey"
            data.Tpch.supplier "s_nationkey"
        in
        let truth = float_of_int (Csdl.Profile.true_join_size profile) in
        List.map
          (fun theta ->
            ( (dataset, profile.Csdl.Profile.jvd, truth, theta),
              List.map
                (fun tag () ->
                  let estimator =
                    match tag with
                    | "opt" -> Csdl.Opt.prepare ~theta profile
                    | "1diff" ->
                        Csdl.Estimator.prepare
                          (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
                          ~theta profile
                    | _ -> Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile
                  in
                  let prng =
                    Prng.create_keyed ~seed:config.Config.seed
                      (Printf.sprintf "table8/scale=%g/z=%g/theta=%.17g/%s"
                         scale z theta tag)
                  in
                  Cell.run ~tuples:Csdl.Synopsis.size_tuples ~label:tag
                    ~runs:config.Config.runs ~truth
                    ~draw:(fun _ -> Csdl.Estimator.draw estimator prng)
                    ~estimate:(Csdl.Estimator.estimate estimator)
                    ())
                approaches ))
          config.Config.tpch_thetas)
      datasets
  in
  List.map
    (fun ((dataset, jvd, truth, theta), cells) ->
      List.iter
        (fun c ->
          Provenance.add config.Config.prov
            (Cell.record ~experiment:"table8" ~query:dataset ~theta ~jvd
               ~truth c))
        cells;
      match cells with
      | [ opt; one_diff; cs2l ] ->
          {
            dataset;
            theta;
            truth = int_of_float truth;
            jvd;
            opt_qerror = opt.Cell.median_qerror;
            opt_variance = opt.Cell.rel_variance;
            one_diff_qerror = one_diff.Cell.median_qerror;
            one_diff_variance = one_diff.Cell.rel_variance;
            cs2l_qerror = cs2l.Cell.median_qerror;
            cs2l_variance = cs2l.Cell.rel_variance;
          }
      | _ -> assert false)
    rows

let print rows =
  (* failed cells report infinite variance, matching the paper *)
  let variance qerror var =
    if Repro_stats.Qerror.is_failure qerror then Float.infinity else var
  in
  Render.print_table
    ~title:
      "Table VIII: skewed TPC-H, customer |><| supplier on nationkey \
       (CSDL(1,diff) column added: the variant the paper's dispatch \
       effectively uses on this small-jvd join)"
    ~header:
      [
        "Dataset"; "theta"; "J"; "jvd"; "Opt q-err"; "Opt var";
        "1,diff q-err"; "1,diff var"; "CS2L q-err"; "CS2L var";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.dataset;
             Printf.sprintf "%g" r.theta;
             string_of_int r.truth;
             Printf.sprintf "%.5f" r.jvd;
             Render.qerror_cell r.opt_qerror;
             Render.variance_cell (variance r.opt_qerror r.opt_variance);
             Render.qerror_cell r.one_diff_qerror;
             Render.variance_cell (variance r.one_diff_qerror r.one_diff_variance);
             Render.qerror_cell r.cs2l_qerror;
             Render.variance_cell (variance r.cs2l_qerror r.cs2l_variance);
           ])
         rows)
    ()
