open Repro_relation
module Prng = Repro_util.Prng
module Clock = Repro_util.Clock
module Job = Repro_datagen.Job_workload

type approach = { label : string; spec : Csdl.Spec.t }

let approaches =
  let v p q = Csdl.Spec.csdl p q in
  let open Csdl.Spec in
  [
    { label = "1,t"; spec = v L_one L_theta };
    { label = "t,1"; spec = v L_theta L_one };
    { label = "rt,rt"; spec = v L_sqrt_theta L_sqrt_theta };
    { label = "diff,1"; spec = v L_diff L_one };
    { label = "diff,t"; spec = v L_diff L_theta };
    { label = "diff,rt"; spec = v L_diff L_sqrt_theta };
    { label = "1,diff"; spec = v L_one L_diff };
    { label = "t,diff"; spec = v L_theta L_diff };
    { label = "rt,diff"; spec = v L_sqrt_theta L_diff };
    { label = "diff,diff"; spec = v L_diff L_diff };
    { label = "CS2L"; spec = Csdl.Spec.cs2l };
    { label = "CS2L-hh"; spec = Csdl.Spec.cs2l_approx () };
  ]

type query_result = {
  name : string;
  jvd : float;
  truth : int;
  theta : float;
  cells : Cell.t list;
}

(* The deterministic stream of one (seed, query, theta, approach) cell.
   The key is an explicit delimited string — see Prng.derive for why
   Hashtbl.hash on a tuple is not good enough here. *)
let cell_prng ~seed ~query ~theta ~label =
  Prng.create_keyed ~seed
    (Printf.sprintf "two-table/%s/theta=%.17g/%s" query theta label)

let run ?(clock = Clock.wall) (config : Config.t) data =
  let obs = config.Config.obs in
  (* Stage 1, per query: the profile and the exact join size every cell of
     that query shares. Stage 2, per (query, theta, approach): one cell on
     its own keyed stream. *)
  let rows =
    Grid.run ~obs ~jobs:config.Config.jobs
      (fun (q : Job.query) ->
        let profile =
          Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
            q.Job.b.Join.table q.Job.b.Join.column
        in
        let truth = float_of_int (Job.true_size q) in
        List.map
          (fun theta ->
            ( (q, profile, truth, theta),
              List.map
                (fun { label; spec } () ->
                  let estimator = Csdl.Estimator.prepare spec ~theta profile in
                  let prng =
                    cell_prng ~seed:config.Config.seed ~query:q.Job.name
                      ~theta ~label
                  in
                  Cell.run ~clock ~tuples:Csdl.Synopsis.size_tuples ~label
                    ~runs:config.Config.runs ~truth
                    ~draw:(fun _ -> Csdl.Estimator.draw ~obs estimator prng)
                    ~estimate:
                      (Csdl.Estimator.estimate ~obs
                         ~pred_a:q.Job.a.Join.predicate
                         ~pred_b:q.Job.b.Join.predicate estimator)
                    ())
                approaches ))
          config.Config.thetas)
      (Job.two_table_queries data)
  in
  let results =
    List.map
      (fun (((q : Job.query), profile, truth, theta), cells) ->
        {
          name = q.Job.name;
          jvd = profile.Csdl.Profile.jvd;
          truth = int_of_float truth;
          theta;
          cells;
        })
      rows
  in
  (* Provenance capture (opt-in, sequential, after the parallel phase): one
     record per (query, theta, approach) cell — never touches stdout. *)
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          Provenance.add config.Config.prov
            (Cell.record ~experiment:"two-table" ~query:r.name ~theta:r.theta
               ~jvd:r.jvd ~truth:(float_of_int r.truth) c))
        r.cells)
    results;
  results

let is_small_jvd (config : Config.t) result =
  result.jvd < config.Config.jvd_threshold

let find_cell ~context label cells =
  match List.find_opt (fun (c : Cell.t) -> c.Cell.label = label) cells with
  | Some cell -> cell
  | None ->
      failwith
        (Printf.sprintf
           "%s: no cell for approach %S (have: %s) — approach labels and \
            result cells are out of sync"
           context label
           (String.concat ", "
              (List.map (fun (c : Cell.t) -> c.Cell.label) cells)))

let qerror_rows results =
  List.map
    (fun r ->
      Printf.sprintf "%s (J=%d)" r.name r.truth
      :: Printf.sprintf "%g" r.theta
      :: List.map
           (fun (c : Cell.t) -> Render.qerror_cell c.Cell.median_qerror)
           r.cells)
    results

let qerror_header =
  "Query" :: "theta" :: List.map (fun a -> a.label) approaches

let print_table4 config results =
  let small = List.filter (is_small_jvd config) results in
  Render.print_table
    ~title:
      (Printf.sprintf
         "Table IV: q-error, queries with small join value density (jvd < %g)"
         config.Config.jvd_threshold)
    ~header:qerror_header ~rows:(qerror_rows small) ()

let print_table5 config results =
  let large = List.filter (fun r -> not (is_small_jvd config r)) results in
  Render.print_table
    ~title:
      (Printf.sprintf
         "Table V: q-error, queries with large join value density (jvd >= %g)"
         config.Config.jvd_threshold)
    ~header:qerror_header ~rows:(qerror_rows large) ()

let print_table6 config results =
  let small = List.filter (is_small_jvd config) results in
  let variance_of result label =
    let cell = find_cell ~context:("Table VI, query " ^ result.name) label result.cells in
    (* the paper reports inf variance for cells whose estimation failed *)
    if Repro_stats.Qerror.is_failure cell.Cell.median_qerror then Float.infinity
    else cell.Cell.rel_variance
  in
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Printf.sprintf "%g" r.theta;
          Render.variance_cell (variance_of r "1,t");
          Render.variance_cell (variance_of r "1,diff");
          Render.variance_cell (variance_of r "CS2L");
        ])
      small
  in
  Render.print_table
    ~title:
      "Table VI: estimation variance (Var/J^2) on small-jvd queries"
    ~header:[ "Query"; "theta"; "CSDL(1,t)"; "CSDL(1,diff)"; "CS2L" ]
    ~rows ()
