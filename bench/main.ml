(* Benchmark harness: regenerates every experimental table of the paper
   (Tables IV-IX plus the Section VI-A estimation-time comparison) and runs
   one Bechamel micro-benchmark per table, plus two of the load path and
   three of the estimate on a cached flat, each timed beside its own data
   only.

   Usage:  dune exec bench/main.exe -- [--quick] [--smoke] [--jobs N]
                                       [--skip-bechamel] [--skip-ablations]
                                       [--csv DIR] [--tables 4,5,6,7,8,9]
                                       [--trace FILE] [--bench-json FILE]
   Environment: REPRO_SCALE, REPRO_RUNS, REPRO_SEED, REPRO_PREFIXES,
   REPRO_JOBS (see Repro_benchlib.Config).

   Experiment cells run on a pool of [--jobs] OCaml domains
   (Repro_util.Pool); every cell owns a keyed PRNG stream, so table output
   is bit-identical at any [--jobs]. Deterministic tables go to stdout;
   progress banners and measured timings go to stderr, so
   `main.exe --smoke --jobs N > out.txt` is byte-comparable across N.

   --trace FILE turns on the observability layer (lib/obs): spans and a
   final metrics dump go to FILE as JSONL and a Prometheus-style snapshot
   goes to stderr. Instrumentation never touches a PRNG stream, so stdout
   stays byte-identical with tracing on or off.

   --bench-json FILE collects per-cell estimate provenance (query, variant,
   sample size, truth, estimate, q-error, timings) from every runner and
   writes the versioned BENCH artifact FILE at exit — the input of
   `repro_cli bench diff`. Same opt-in contract as --trace: collection
   happens in the sequential reassembly phases and never perturbs stdout. *)

open Repro_benchlib
module Prng = Repro_util.Prng
module Clock = Repro_util.Clock
module Job = Repro_datagen.Job_workload
module Obs = Repro_obs.Obs
open Repro_relation

type options = {
  quick : bool;
  smoke : bool;
  jobs : int option;  (* --jobs override; otherwise Config.from_env *)
  skip_bechamel : bool;
  skip_ablations : bool;
  tables : int list;  (* which paper tables to regenerate *)
  trace : string option;  (* --trace FILE: JSONL span/metric export *)
  bench_json : string option;  (* --bench-json FILE: provenance artifact *)
}

let usage =
  "usage: main.exe [--quick] [--smoke] [--jobs N] [--skip-bechamel]\n\
  \                [--skip-ablations] [--csv DIR] [--tables 4,5,...]\n\
  \                [--trace FILE] [--bench-json FILE]\n"

let parse_options () =
  let quick = ref false and smoke = ref false in
  let jobs = ref None in
  let skip_bechamel = ref false and skip_ablations = ref false in
  let tables = ref [ 4; 5; 6; 7; 8; 9 ] in
  let trace = ref None in
  let bench_json = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := Some n;
            parse rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n%s" n
              usage;
            exit 2)
    | "--skip-bechamel" :: rest ->
        skip_bechamel := true;
        parse rest
    | "--skip-ablations" :: rest ->
        skip_ablations := true;
        parse rest
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Repro_benchlib.Render.set_csv_dir (Some dir);
        parse rest
    | "--tables" :: spec :: rest ->
        tables :=
          String.split_on_char ',' spec
          |> List.filter_map int_of_string_opt;
        parse rest
    | "--trace" :: file :: rest ->
        trace := Some file;
        parse rest
    | "--bench-json" :: file :: rest ->
        bench_json := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n%s" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  {
    quick = !quick;
    smoke = !smoke;
    jobs = !jobs;
    skip_bechamel = !skip_bechamel;
    skip_ablations = !skip_ablations;
    tables = !tables;
    trace = !trace;
    bench_json = !bench_json;
  }

let wants options n = List.mem n options.tables

(* Stage banner: wall clock is the headline (the paper's latency metric);
   CPU time rides along — under the domain pool it sums over every worker,
   so cpu >> wall is the expected signature of parallel execution. Banners
   go to stderr: stdout carries only the deterministic tables. *)
let timed ?(obs = Obs.null) label f =
  let result, span =
    Clock.time (fun () ->
        Obs.Span.with_ obs ~name:"bench.stage" ~attrs:[ ("stage", label) ] f)
  in
  Format.eprintf "[%s: %.1fs wall, %.1fs cpu]@." label span.Clock.wall_seconds
    span.Clock.cpu_seconds;
  result

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per paper table, two for loading,   *)
(* three for the estimate on a cached flat                            *)
(* ------------------------------------------------------------------ *)

(* Each test is a name and a thunk that builds its data and returns the
   staged call: [run_bechamel] builds one test's data, times it, and drops
   it before the next, so no test is timed beside another's heap. The
   thunks are forced in list order, which is the order the tests sharing
   [prng] draw in. *)
let bechamel_tests config data =
  let open Bechamel in
  let prng = Prng.create (config.Config.seed + 77) in
  let queries = Job.two_table_queries data in
  let find_query name =
    match List.find_opt (fun q -> q.Job.name = name) queries with
    | Some q -> q
    | None ->
        failwith
          (Printf.sprintf
             "bechamel: no query %S in the two-table workload (have: %s)" name
             (String.concat ", " (List.map (fun q -> q.Job.name) queries)))
  in
  let test name f = (name, fun () -> Test.make ~name (Staged.stage (f ()))) in
  let pair_estimate_test ~name ~query_name ~spec ~theta =
    test name (fun () ->
        let q = find_query query_name in
        let profile =
          Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
            q.Job.b.Join.table q.Job.b.Join.column
        in
        let estimator = Csdl.Estimator.prepare spec ~theta profile in
        let synopsis = Csdl.Estimator.draw estimator prng in
        fun () ->
          Sys.opaque_identity
            (Csdl.Estimator.estimate ~pred_a:q.Job.a.Join.predicate
               ~pred_b:q.Job.b.Join.predicate estimator synopsis))
  in
  let table7_test =
    test "table7/pkfk-prefix-estimate" (fun () ->
        let q = Job.pkfk_prefix_query data ~prefix:"The" in
        let profile =
          Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
            q.Job.b.Join.table q.Job.b.Join.column
        in
        let estimator = Csdl.Opt.prepare ~theta:0.001 profile in
        let synopsis = Csdl.Estimator.draw estimator prng in
        fun () ->
          Sys.opaque_identity
            (Csdl.Estimator.estimate ~pred_a:q.Job.a.Join.predicate
               ~pred_b:q.Job.b.Join.predicate estimator synopsis))
  in
  let table8_test =
    test "table8/skewed-tpch-estimate" (fun () ->
        let d =
          Repro_datagen.Tpch.generate ~scale:0.1 ~z:4.0 ~seed:config.Config.seed
        in
        let profile =
          Csdl.Profile.of_tables d.Repro_datagen.Tpch.customer "c_nationkey"
            d.Repro_datagen.Tpch.supplier "s_nationkey"
        in
        let estimator = Csdl.Opt.prepare ~theta:0.001 profile in
        let synopsis = Csdl.Estimator.draw estimator prng in
        fun () -> Sys.opaque_identity (Csdl.Estimator.estimate estimator synopsis))
  in
  let table9_test =
    test "table9/chain-estimate" (fun () ->
        let d =
          Repro_datagen.Tpch.generate ~scale:0.1 ~z:2.0 ~seed:config.Config.seed
        in
        let tables =
          {
            Csdl.Chain_n.links =
              [
                {
                  Csdl.Chain_n.table = d.Repro_datagen.Tpch.customer;
                  pk = "c_custkey";
                  fk = None;
                };
                {
                  table = d.Repro_datagen.Tpch.orders;
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
        let prepared = Csdl.Chain_n.prepare_opt ~theta:0.001 tables in
        let synopsis = Csdl.Chain_n.draw prepared prng in
        fun () ->
          Sys.opaque_identity
            (Csdl.Chain_n.estimate ~predicates prepared synopsis))
  in
  (* The daemon's CSV reader on the generated cast_info table, written to
     a file removed at exit: a cache miss's read of 50 sampled rows with
     no counted column, then the fingerprint it hashes. *)
  let cast_info = data.Repro_datagen.Imdb.cast_info in
  let read_rows_test =
    test "load/csv-read-rows" (fun () ->
        let path = Filename.temp_file "bench-cast_info" ".csv" in
        at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
        Csv_io.write path cast_info;
        let n = Table.cardinality cast_info in
        let rows = Array.init 50 (fun i -> i * n / 50) in
        fun () -> Sys.opaque_identity (Csv_io.read_rows path ~columns:[] ~rows))
  in
  let fingerprint_test =
    test "load/table-fingerprint" (fun () () ->
        Sys.opaque_identity (Table.fingerprint cast_info))
  in
  (* The daemon's hit path: one flat, flattened once at the served theta
     and estimated over and over, so the learner memo answers after the
     first call. The table4-6 tests flatten on every call. Each flat
     draws from its own stream, so the other tests draw what they drew
     without it. *)
  let flat_test ~name ~query_name ~stream ~preds =
    test name (fun () ->
        let q = find_query query_name in
        let profile =
          Csdl.Profile.of_tables q.Job.a.Join.table q.Job.a.Join.column
            q.Job.b.Join.table q.Job.b.Join.column
        in
        let estimator =
          Csdl.Estimator.prepare ~sample_first:`A
            (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff)
            ~theta:0.05 profile
        in
        let flat =
          Csdl.Synopsis_flat.of_synopsis
            (Csdl.Estimator.draw estimator
               (Prng.create (config.Config.seed + stream)))
        in
        let pred_a, pred_b = preds q in
        Format.eprintf "[bechamel %s: %d first-side values]@." name
          (Array.length flat.Csdl.Synopsis_flat.a.Csdl.Synopsis_flat.values);
        fun () ->
          Sys.opaque_identity
            (Csdl.Estimate.run_checked_flat ?pred_a ?pred_b flat))
  in
  let join_preds q = (Some q.Job.a.Join.predicate, Some q.Job.b.Join.predicate) in
  [
    pair_estimate_test ~name:"table4/csdl-1-diff-small-jvd" ~query_name:"Q1a1"
      ~spec:(Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff) ~theta:0.001;
    pair_estimate_test ~name:"table5/csdl-t-diff-large-jvd" ~query_name:"Q1b3"
      ~spec:(Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff) ~theta:0.001;
    pair_estimate_test ~name:"table6/cs2l-scaling-estimate" ~query_name:"Q1a1"
      ~spec:Csdl.Spec.cs2l ~theta:0.001;
    table7_test;
    table8_test;
    table9_test;
    read_rows_test;
    fingerprint_test;
    (* Q1a1's filtered first side (movie_companies) *)
    flat_test ~name:"estimate/flat-dl-filtered" ~query_name:"Q1a1" ~stream:78
      ~preds:join_preds;
    (* Q1b3: no predicate on either side *)
    flat_test ~name:"estimate/flat-unfiltered" ~query_name:"Q1b3" ~stream:79
      ~preds:(fun _ -> (None, None));
    (* Q2a1: an int comparison on title's side, as on the t_mk key *)
    flat_test ~name:"estimate/flat-int-filter" ~query_name:"Q2a1" ~stream:80
      ~preds:join_preds;
  ]

let run_bechamel config data =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let time (_, make) =
    let test = Test.make_grouped ~name:"repro" ~fmt:"%s/%s" [ make () ] in
    let analyzed = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
    (* the test and its data are unreachable from here on *)
    Gc.compact ();
    Hashtbl.fold
      (fun name ols_result rows ->
        let nanos =
          match Analyze.OLS.estimates ols_result with
          | Some (t :: _) -> Printf.sprintf "%.0f ns" t
          | _ -> "n/a"
        in
        [ name; nanos ] :: rows)
      analyzed []
  in
  let rows = List.concat_map time (bechamel_tests config data) in
  Format.printf "@.== Bechamel: online estimation and load cost ==@.";
  Render.print_table ~title:"per-call time"
    ~header:[ "benchmark"; "time/call" ] ~rows:(List.sort compare rows) ()

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let options = parse_options () in
  (* --smoke: a CI-sized deterministic grid — Tables IV/V/VI only, small
     scale, no bechamel/ablations, measured timings on stderr. *)
  let options =
    if options.smoke then
      {
        options with
        tables = List.filter (wants options) [ 4; 5; 6 ];
        skip_bechamel = true;
        skip_ablations = true;
      }
    else options
  in
  let obs =
    match options.trace with
    | None -> Obs.null
    | Some file -> Obs.create ~sink:(Repro_obs.Trace.file file) ()
  in
  (* Pre-declare the cascade counter so the metrics dump always carries it
     — a trace with zero downgrades is then explicit, not absent. *)
  Obs.count obs "estimate.downgrades.total" 0;
  let prov =
    match options.bench_json with
    | None -> Provenance.null
    | Some _ -> Provenance.create ()
  in
  let config =
    let base = Config.from_env () in
    let base =
      if options.smoke then
        { base with Config.imdb_scale = 0.2; runs = 6; prefix_count = 20 }
      else if options.quick then
        { base with Config.imdb_scale = 0.2; runs = 5; prefix_count = 30 }
      else base
    in
    let base =
      match options.jobs with
      | Some jobs -> { base with Config.jobs = jobs }
      | None -> base
    in
    { base with Config.obs = obs; prov }
  in
  Format.eprintf "repro bench: %a@." Config.pp config;
  let timed label f = timed ~obs label f in
  let data =
    timed "generate mini-IMDB" (fun () ->
        Repro_datagen.Imdb.generate ~scale:config.Config.imdb_scale
          ~seed:config.Config.seed ())
  in
  let need_two_table = List.exists (wants options) [ 4; 5; 6 ] in
  let two_table_results =
    if need_two_table then
      Some (timed "two-table experiment" (fun () -> Exp_two_table.run config data))
    else None
  in
  Option.iter
    (fun results ->
      if wants options 4 then Exp_two_table.print_table4 config results;
      if wants options 5 then Exp_two_table.print_table5 config results;
      if wants options 6 then Exp_two_table.print_table6 config results)
    two_table_results;
  if wants options 7 then
    timed "prefix sweep" (fun () -> Table7.run config data)
    |> List.iter Table7.print;
  if wants options 8 then
    timed "skewed TPC-H" (fun () -> Table8.run config) |> Table8.print;
  if wants options 9 then
    timed "chain joins" (fun () -> Table9.run config) |> Table9.print;
  Option.iter
    (fun results ->
      let summaries = Timing.run config results in
      (* measured wall times are nondeterministic — keep them off the
         byte-comparable stdout stream in smoke mode *)
      if options.smoke then Timing.print ~ppf:Format.err_formatter summaries
      else Timing.print summaries)
    two_table_results;
  if not options.skip_ablations then begin
    timed "related-work comparison" (fun () -> Baseline_table.run config data)
    |> Baseline_table.print;
    timed "star joins" (fun () -> Star_bench.run config) |> Star_bench.print;
    timed "4-table chains" (fun () -> Chain4_bench.run config)
    |> Chain4_bench.print;
    timed "ablations" (fun () -> Ablation.run_all config data)
  end;
  if not options.skip_bechamel then run_bechamel config data;
  (* Provenance artifact: every record the runners collected, summarised
     per (experiment, variant), to the --bench-json path. The artifact
     name is the basename minus the conventional BENCH_/.json affixes, so
     BENCH_baseline.json is named "baseline". *)
  Option.iter
    (fun path ->
      let name =
        let base = Filename.basename path in
        let base = Filename.remove_extension base in
        if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
          String.sub base 6 (String.length base - 6)
        else base
      in
      let artifact = Provenance.artifact ~name (Provenance.records prov) in
      Provenance.write ~path artifact;
      Format.eprintf "[provenance: %d records -> %s]@."
        (List.length artifact.Provenance.a_records)
        path)
    options.bench_json;
  (* End-of-run observability export: Prometheus snapshot to stderr (never
     stdout — tables must stay byte-comparable), metrics dump + span file
     closed last. *)
  Option.iter
    (fun snapshot ->
      Format.eprintf "== metrics snapshot ==@.%s@." snapshot)
    (Obs.prometheus obs);
  Obs.close obs
