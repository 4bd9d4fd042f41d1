open Repro_relation
module Prng = Repro_util.Prng
module Pool = Repro_util.Pool
module Job = Repro_datagen.Job_workload

type sweep_point = {
  rank : int;
  prefix : string;
  truth : int;
  opt_qerror : float;
  cs2l_qerror : float;
  cs2l_hh_qerror : float;
}

type result = {
  kind : [ `Pkfk | `M2m ];
  points : sweep_point list;
  shown_ranks : int list;
}

let run_kind (config : Config.t) data prefixes kind =
  let jobs = config.Config.jobs in
  (* The offline phase does not depend on the predicate, so we draw the
     synopses once per approach and reuse them across the whole sweep. *)
  let query_of prefix =
    match kind with
    | `Pkfk -> Job.pkfk_prefix_query data ~prefix
    | `M2m -> Job.m2m_prefix_query data ~prefix
  in
  let kind_tag = match kind with `Pkfk -> "pkfk" | `M2m -> "m2m" in
  let theta = config.Config.prefix_theta in
  let template = query_of "X" in
  let profile =
    Csdl.Profile.of_tables template.Job.a.Join.table template.Job.a.Join.column
      template.Job.b.Join.table template.Job.b.Join.column
  in
  let opt = Csdl.Opt.prepare ~theta profile in
  let cs2l = Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile in
  let cs2l_hh = Csdl.Estimator.prepare (Csdl.Spec.cs2l_approx ()) ~theta profile in
  (* Three independent keyed streams, one per approach — drawn as three
     pool tasks since each stream is internally sequential. *)
  let drawn =
    Pool.map ~obs:config.Config.obs ~jobs
      (fun (estimator, tag) ->
        let prng =
          Prng.create_keyed ~seed:config.Config.seed
            (Printf.sprintf "table7/%s/%s" kind_tag tag)
        in
        ( estimator,
          Array.init config.Config.runs (fun _ ->
              Csdl.Estimator.draw estimator prng) ))
      [ (opt, "opt"); (cs2l, "cs2l"); (cs2l_hh, "cs2l_hh") ]
  in
  (* The sweep itself: one pure task per prefix. Estimation only reads the
     shared estimators and pre-drawn synopses, so points parallelise
     without perturbing each other. *)
  let points =
    Pool.map ~obs:config.Config.obs ~jobs
      (fun (i, prefix) ->
        let q = query_of prefix in
        let truth = float_of_int (Job.true_size q) in
        (* run r of a prefix's cell estimates the r-th pre-drawn synopsis *)
        let median (estimator, synopses) =
          (Cell.run ~label:"" ~runs:(Array.length synopses) ~truth
             ~draw:(Array.get synopses)
             ~estimate:
               (Csdl.Estimator.estimate ~pred_a:q.Job.a.Join.predicate
                  ~pred_b:q.Job.b.Join.predicate estimator)
             ())
            .Cell.median_qerror
        in
        match List.map median drawn with
        | [ opt_qerror; cs2l_qerror; cs2l_hh_qerror ] ->
            {
              rank = i + 1;
              prefix;
              truth = int_of_float truth;
              opt_qerror;
              cs2l_qerror;
              cs2l_hh_qerror;
            }
        | _ -> assert false)
      (List.mapi (fun i prefix -> (i, prefix)) prefixes)
  in
  let shown_ranks =
    List.filteri (fun i _ -> i mod 5 = 0) (List.mapi (fun i _ -> i + 1) prefixes)
  in
  { kind; points; shown_ranks }

let run (config : Config.t) data =
  let prefixes = Job.top_prefixes data config.Config.prefix_count in
  [ run_kind config data prefixes `Pkfk; run_kind config data prefixes `M2m ]

let failures result ~on ~ranks =
  let selected =
    match ranks with
    | None -> result.points
    | Some ranks -> List.filter (fun p -> List.mem p.rank ranks) result.points
  in
  List.length
    (List.filter
       (fun p ->
         Repro_stats.Qerror.is_failure
           (match on with
          | `Opt -> p.opt_qerror
          | `Cs2l -> p.cs2l_qerror
          | `Cs2l_hh -> p.cs2l_hh_qerror))
       selected)

let print result =
  let title =
    match result.kind with
    | `Pkfk -> "Table VII(a): PK-FK join, LIKE-prefix selectivity sweep"
    | `M2m -> "Table VII(b): many-to-many join, LIKE-prefix selectivity sweep"
  in
  let rows =
    result.points
    |> List.filter (fun p -> List.mem p.rank result.shown_ranks)
    |> List.map (fun p ->
           [
             string_of_int p.rank;
             p.prefix;
             string_of_int p.truth;
             Render.qerror_cell p.opt_qerror;
             Render.qerror_cell p.cs2l_qerror;
             Render.qerror_cell p.cs2l_hh_qerror;
           ])
  in
  let summary =
    [
      [
        "#inf (shown)";
        "";
        "";
        string_of_int (failures result ~on:`Opt ~ranks:(Some result.shown_ranks));
        string_of_int (failures result ~on:`Cs2l ~ranks:(Some result.shown_ranks));
        string_of_int (failures result ~on:`Cs2l_hh ~ranks:(Some result.shown_ranks));
      ];
      [
        "#inf (all)";
        "";
        "";
        string_of_int (failures result ~on:`Opt ~ranks:None);
        string_of_int (failures result ~on:`Cs2l ~ranks:None);
        string_of_int (failures result ~on:`Cs2l_hh ~ranks:None);
      ];
    ]
  in
  Render.print_table ~title
    ~header:[ "Rank"; "Prefix"; "J"; "CSDL-Opt"; "CS2L"; "CS2L-hh" ]
    ~rows:(rows @ summary) ()
