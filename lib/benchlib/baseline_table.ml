open Repro_relation
module Prng = Repro_util.Prng
module Job = Repro_datagen.Job_workload
open Repro_baselines

type row = {
  query : string;
  truth : int;
  cells : (string * float option) list;
}

let theta = 0.01

let approach_names =
  [
    "CSDL-Opt"; "CS2L"; "independent"; "end-biased"; "AGMS"; "histogram";
    "join-syn"; "wander";
  ]

(* The per-query closures, one per approach column; [None] marks an
   approach that cannot answer the query (sketches and histograms
   summarise unfiltered columns). Each closure only reads the shared
   profile and draws from its own keyed stream. *)
let approach_cells (config : Config.t) (q : Job.query) profile truth =
  let runs = config.Config.runs in
  let seed = config.Config.seed in
  let pred_a = q.Job.a.Join.predicate and pred_b = q.Job.b.Join.predicate in
  let has_predicates = pred_a <> Predicate.True || pred_b <> Predicate.True in
  let key tag = Printf.sprintf "baselines/%s/%s" q.Job.name tag in
  let median_qerror tag ~draw ~estimate =
    (Cell.run ~label:tag ~runs ~truth ~draw ~estimate ()).Cell.median_qerror
  in
  (* every run draws from the approach's one keyed stream *)
  let keyed tag estimate_once =
    let prng = Prng.create_keyed ~seed (key tag) in
    Some (median_qerror tag ~draw:(fun _ -> prng) ~estimate:estimate_once)
  in
  let csdl_opt () =
    let est = Csdl.Opt.prepare ~theta profile in
    keyed "opt" (Csdl.Estimator.estimate_once ~pred_a ~pred_b est)
  in
  let cs2l () =
    let est = Csdl.Estimator.prepare Csdl.Spec.cs2l ~theta profile in
    keyed "cs2l" (Csdl.Estimator.estimate_once ~pred_a ~pred_b est)
  in
  let independent () =
    let est = Independent.prepare ~theta profile in
    keyed "ind" (Independent.estimate_once ~pred_a ~pred_b est)
  in
  let end_biased () =
    let est = End_biased.prepare ~theta profile in
    keyed "eb" (End_biased.estimate_once ~pred_a ~pred_b est)
  in
  let agms () =
    (* sketches summarise unfiltered columns; only predicate-free
       queries are answerable. Run i sketches under its own plan seed. *)
    if has_predicates then None
    else
      Some
        (median_qerror "agms"
           ~draw:(fun i ->
             let plan_seed =
               Int64.to_int
                 (Prng.derive ~seed (key (Printf.sprintf "agms/run=%d" i)))
             in
             Agms.plan ~theta profile ~seed:plan_seed)
           ~estimate:(fun plan -> Agms.estimate_profile plan profile))
  in
  let histogram () =
    (* histograms summarise unfiltered join columns; they answer
       predicate-free queries (and range predicates on the join
       column, which this workload does not use) *)
    if has_predicates then None
    else begin
      let buckets = Histogram.plan_buckets ~theta profile in
      let ha = Histogram.build ~buckets q.Job.a.Join.table q.Job.a.Join.column in
      let hb = Histogram.build ~buckets q.Job.b.Join.table q.Job.b.Join.column in
      Some
        (Repro_stats.Qerror.compute ~truth
           ~estimate:(Histogram.estimate_join ha hb))
    end
  in
  let join_syn () =
    match Join_synopsis.prepare ~theta profile with
    | Error _ -> None
    | Ok est ->
        let pred_fk, pred_pk =
          if Join_synopsis.fk_is_left est then (pred_a, pred_b)
          else (pred_b, pred_a)
        in
        keyed "js" (Join_synopsis.estimate_once ~pred_fk ~pred_pk est)
  in
  let wander () =
    let walks =
      max 1 (int_of_float (theta *. float_of_int profile.Csdl.Profile.total_rows))
    in
    let est = Wander.prepare ~walks profile in
    keyed "wander" (Wander.estimate ~pred_a ~pred_b est)
  in
  [ csdl_opt; cs2l; independent; end_biased; agms; histogram; join_syn; wander ]

let run (config : Config.t) data =
  (* Stage 1, per query: the profile and exact size all eight approach
     cells share. Stage 2: the flat (query x approach) grid. *)
  Grid.run ~obs:config.Config.obs ~jobs:config.Config.jobs
    (fun (q : Job.query) ->
      let profile =
        Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
          q.Job.b.Join.table q.Job.b.Join.column
      in
      let truth = float_of_int (Job.true_size q) in
      [ ((q.Job.name, truth), approach_cells config q profile truth) ])
    (Job.two_table_queries data)
  |> List.map (fun ((query, truth), cells) ->
         {
           query;
           truth = int_of_float truth;
           cells = List.combine approach_names cells;
         })

let print rows =
  Render.print_table
    ~title:
      (Printf.sprintf
         "Related-work comparison (beyond the paper): median q-error at \
          theta = %g" theta)
    ~header:("Query" :: "J" :: approach_names)
    ~rows:
      (List.map
         (fun r ->
           r.query :: string_of_int r.truth
           :: List.map
                (fun (_, cell) ->
                  match cell with
                  | None -> "n/a"
                  | Some q -> Render.qerror_cell q)
                r.cells)
         rows)
    ()
