(* Operating correlated sampling as a workload service: build one synopsis
   per frequently-queried join graph, persist the store to disk, reload it
   in a "fresh process", and answer a batch of estimation queries without
   re-sampling — the deployment story of the paper's Section III storage
   discussion. Finishes with an accuracy report per join graph.

   Run with:  dune exec examples/synopsis_workload.exe *)

open Repro_relation
module Prng = Repro_util.Prng

let theta = 0.02

let () =
  let data = Repro_datagen.Imdb.generate ~scale:0.2 ~seed:42 () in
  let tables =
    [
      ("title", data.Repro_datagen.Imdb.title);
      ("movie_companies", data.Repro_datagen.Imdb.movie_companies);
      ("movie_info_idx", data.Repro_datagen.Imdb.movie_info_idx);
      ("movie_keyword", data.Repro_datagen.Imdb.movie_keyword);
      ("cast_info", data.Repro_datagen.Imdb.cast_info);
    ]
  in
  let table name = List.assoc name tables in
  let resolve_table name =
    match List.assoc_opt name tables with
    | Some t -> t
    | None -> failwith ("unknown table: " ^ name)
  in
  (* one join graph per frequently queried join *)
  let join_graphs =
    [
      ("title-mc", "title", "id", "movie_companies", "movie_id");
      ("title-mii", "title", "id", "movie_info_idx", "movie_id");
      ("title-mk", "title", "id", "movie_keyword", "movie_id");
      ("title-ci", "title", "id", "cast_info", "movie_id");
    ]
  in
  (* offline phase: sample every graph once, persist *)
  let store = Csdl.Store.create () in
  let prng = Prng.create 7 in
  List.iter
    (fun (key, ta, ca, tb, cb) ->
      let profile = Csdl.Profile.of_tables (table ta) ca (table tb) cb in
      let estimator = Csdl.Opt.prepare ~theta profile in
      let synopsis = Csdl.Estimator.draw estimator prng in
      Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis)
    join_graphs;
  let path = Filename.temp_file "repro" ".synopses" in
  Csdl.Store.save store path;
  Printf.printf
    "offline: %d synopses built and saved to %s (%d sample tuples total)\n\n"
    (List.length (Csdl.Store.keys store))
    path
    (Csdl.Store.total_tuples store);
  (* "new process": reload and serve estimation queries *)
  let served = Csdl.Store.load ~resolve_table path in
  Sys.remove path;
  let year y = Predicate.Compare (Predicate.Gt, "production_year", Value.Int y) in
  let queries =
    [
      ("title-mc", year 2000, Predicate.True);
      ("title-mc", year 1960, Predicate.Compare (Predicate.Eq, "company_type_id", Value.Int 1));
      ("title-mii", year 1990, Predicate.Compare (Predicate.Le, "info_type_id", Value.Int 5));
      ("title-mk", year 2010, Predicate.True);
      ("title-ci", Predicate.True, Predicate.Compare (Predicate.Le, "role_id", Value.Int 3));
      ("title-ci", year 1995, Predicate.True);
    ]
  in
  (* answer the batch and collect each query's q-error for the report *)
  let qerrors =
    List.map
      (fun (key, pred_a, pred_b) ->
        let estimate = Csdl.Store.estimate served ~key ~pred_a ~pred_b in
        let ta, ca, tb, cb =
          let _, ta, ca, tb, cb =
            List.find (fun (k, _, _, _, _) -> k = key) join_graphs
          in
          (ta, ca, tb, cb)
        in
        let truth =
          Join.pair_count
            (Join.filtered (table ta) ca pred_a)
            (Join.filtered (table tb) cb pred_b)
        in
        let qerror =
          Repro_stats.Qerror.compute ~truth:(float_of_int truth) ~estimate
        in
        Printf.printf "%-10s %-28s estimate %10.0f  true %8d  q-error %s\n" key
          (Predicate.to_string pred_a) estimate truth
          (Repro_stats.Qerror.to_string qerror);
        (key, qerror))
      queries
  in
  (* accuracy report per join graph: its query count and mean q-error,
     the q-errors summed in query order *)
  let per_graph =
    List.fold_left
      (fun acc (key, qerror) ->
        let n, total =
          Option.value (List.assoc_opt key acc) ~default:(0, 0.0)
        in
        (key, (n + 1, total +. qerror)) :: List.remove_assoc key acc)
      [] qerrors
  in
  let report =
    Table.of_rows
      (Schema.make
         [
           ("graph", Schema.T_string);
           ("queries", Schema.T_int);
           ("mean_qerror", Schema.T_float);
         ])
      (List.map
         (fun (key, (n, total)) ->
           [|
             Value.Str key; Value.Int n; Value.Float (total /. float_of_int n);
           |])
         (List.sort (fun (a, _) (b, _) -> String.compare a b) per_graph))
  in
  Printf.printf "\naccuracy by join graph:\n%!";
  Format.printf "%a@." (Table.pp_head ~limit:10) report
