(* Tests for the domain pool and the parallel benchmark harness: result
   ordering, exception propagation, and the central determinism contract —
   bench cells are bit-identical at any --jobs setting because every cell
   owns a keyed PRNG stream. *)

module Pool = Repro_util.Pool
module Clock = Repro_util.Clock
open Repro_benchlib

let exact_float =
  Alcotest.testable (fun ppf f -> Format.fprintf ppf "%.17g" f)
    (fun a b -> Float.compare a b = 0)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_default_jobs () =
  Alcotest.(check bool) "at least one worker" true (Pool.default_jobs () >= 1)

let test_map_matches_sequential () =
  let items = List.init 201 Fun.id in
  let f i = (i * i) + (i mod 7) in
  Alcotest.(check (list int))
    "parallel map equals List.map" (List.map f items) (Pool.map ~jobs:4 f items)

let test_map_array_matches_sequential () =
  let items = Array.init 97 (fun i -> Printf.sprintf "item-%03d" i) in
  let f s = String.uppercase_ascii s ^ "!" in
  Alcotest.(check (array string))
    "parallel map_array equals Array.map" (Array.map f items)
    (Pool.map_array ~jobs:4 f items)

let test_map_array_chunked () =
  let items = Array.init 100 Fun.id in
  let f i = 3 * i in
  Alcotest.(check (array int))
    "chunked claims preserve index order" (Array.map f items)
    (Pool.map_array ~jobs:3 ~chunk:8 f items)

let test_map_array_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map_array ~jobs:4 Fun.id [||]);
  Alcotest.(check (array int)) "singleton" [| 42 |]
    (Pool.map_array ~jobs:4 Fun.id [| 42 |])

let test_jobs_clamped_to_items () =
  (* more workers than tasks must not deadlock or drop results *)
  let items = Array.init 5 Fun.id in
  Alcotest.(check (array int))
    "jobs > n" (Array.map succ items)
    (Pool.map_array ~jobs:64 succ items)

exception Boom of int

let test_exception_lowest_index () =
  let f i = if i = 37 || i = 73 then raise (Boom i) else i in
  match Pool.map_array ~jobs:4 f (Array.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      Alcotest.(check int)
        "lowest-index failure wins, as in a sequential map" 37 i

(* ------------------------------------------------------------------ *)
(* Adversarially skewed task durations                                 *)
(* ------------------------------------------------------------------ *)

let busy_wait seconds =
  let stop = Clock.wall () +. seconds in
  while Clock.wall () < stop do
    ignore (Sys.opaque_identity ())
  done

(* A few hostage-length tasks scattered among hundreds of near-instant
   ones: domains finish wildly out of phase, yet results must land in
   task-index order exactly as a sequential map would produce them. *)
let test_skewed_durations_preserve_order () =
  let n = 240 in
  let f i =
    busy_wait (if i mod 48 = 0 then 0.02 else 0.0001);
    (i * 31) + 7
  in
  Alcotest.(check (array int))
    "skewed durations keep index order"
    (Array.init n (fun i -> (i * 31) + 7))
    (Pool.map_array ~jobs:4 f (Array.init n Fun.id))

(* Strictly decreasing durations are the worst case for chunked claims
   (the first chunk is the heaviest); ordering must still hold. *)
let test_decreasing_durations_with_chunking () =
  let n = 96 in
  let f i =
    busy_wait (float_of_int (n - i) *. 0.0002);
    i + 1000
  in
  Alcotest.(check (array int))
    "front-loaded durations with chunk > 1"
    (Array.init n (fun i -> i + 1000))
    (Pool.map_array ~jobs:3 ~chunk:8 f (Array.init n Fun.id))

(* The lowest-index failing task is the SLOWEST: a fast high-index
   failure completes long before it, but the pool must still re-raise
   the low-index exception, as a sequential map would surface first. *)
let test_slow_low_index_exception_wins () =
  let f i =
    if i = 3 then begin
      busy_wait 0.05;
      raise (Boom 3)
    end
    else if i = 90 then raise (Boom 90)
    else busy_wait 0.0005
  in
  match Pool.map_array ~jobs:4 f (Array.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
      Alcotest.(check int) "slow lowest-index failure still wins" 3 i

(* ------------------------------------------------------------------ *)
(* Bench-grid determinism: jobs=1 vs jobs=N bit-identical              *)
(* ------------------------------------------------------------------ *)

(* A CI-sized grid: one theta, two runs, 5% scale. Generated once and
   shared by the grid tests below. *)
let tiny_config =
  { Config.default with Config.imdb_scale = 0.05; runs = 2; thetas = [ 0.01 ] }

let tiny_data =
  let data = ref None in
  fun () ->
    match !data with
    | Some d -> d
    | None ->
        let d =
          Repro_datagen.Imdb.generate ~scale:tiny_config.Config.imdb_scale
            ~seed:tiny_config.Config.seed ()
        in
        data := Some d;
        d

let check_same_results seq par =
  Alcotest.(check int)
    "same number of (query, theta) rows" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Exp_two_table.query_result) (b : Exp_two_table.query_result) ->
      Alcotest.(check string) "query order" a.Exp_two_table.name b.Exp_two_table.name;
      Alcotest.check exact_float "jvd" a.Exp_two_table.jvd b.Exp_two_table.jvd;
      Alcotest.(check int) "truth" a.Exp_two_table.truth b.Exp_two_table.truth;
      List.iter2
        (fun (ca : Cell.t) (cb : Cell.t) ->
          let ctx = a.Exp_two_table.name ^ "/" ^ ca.Cell.label in
          Alcotest.(check string) (ctx ^ ": approach") ca.Cell.label
            cb.Cell.label;
          Alcotest.(check (array exact_float))
            (ctx ^ ": estimates bit-identical") ca.Cell.estimates
            cb.Cell.estimates;
          Alcotest.check exact_float (ctx ^ ": median q-error")
            ca.Cell.median_qerror cb.Cell.median_qerror;
          Alcotest.check exact_float (ctx ^ ": relative variance")
            ca.Cell.rel_variance cb.Cell.rel_variance;
          Alcotest.(check int) (ctx ^ ": zero runs") ca.Cell.zero_runs
            cb.Cell.zero_runs)
        a.Exp_two_table.cells b.Exp_two_table.cells)
    seq par

let test_grid_jobs_invariant () =
  let data = tiny_data () in
  let seq = Exp_two_table.run { tiny_config with Config.jobs = 1 } data in
  let par = Exp_two_table.run { tiny_config with Config.jobs = 3 } data in
  check_same_results seq par

(* With an injected counter clock every timed section lasts exactly one
   step, so every cell's wall average must equal the step — which also
   proves Cell.run times ALL runs (a dropped run would shift the mean). *)
let test_grid_injected_clock_and_timing () =
  let data = tiny_data () in
  let config = { tiny_config with Config.jobs = 1 } in
  let step = 0.25 in
  let results = Exp_two_table.run ~clock:(Clock.counter ~step ()) config data in
  List.iter
    (fun (r : Exp_two_table.query_result) ->
      List.iter
        (fun (c : Cell.t) ->
          Alcotest.check exact_float
            (r.Exp_two_table.name ^ "/" ^ c.Cell.label
           ^ ": wall avg = clock step")
            step c.Cell.mean_wall_seconds)
        r.Exp_two_table.cells)
    results;
  (* Timing summaries over the same fake-clock results: every query is
     measured, and the wall mean is exactly the step. *)
  let queries = List.length results in
  List.iter
    (fun (s : Timing.summary) ->
      Alcotest.(check int)
        (s.Timing.approach ^ ": all queries measured") queries
        s.Timing.queries_measured;
      Alcotest.(check int)
        (s.Timing.approach ^ ": total queries") queries s.Timing.queries_total;
      Alcotest.check exact_float
        (s.Timing.approach ^ ": wall mean = clock step") step
        s.Timing.mean_wall_seconds)
    (Timing.run config results)

(* ------------------------------------------------------------------ *)
(* Timing summaries on hand-built cells                                *)
(* ------------------------------------------------------------------ *)

let mk_cell approach wall cpu zero =
  {
    Cell.label = approach;
    estimates = [| 1.0; 2.0 |];
    median_estimate = 1.5;
    median_qerror = 1.0;
    rel_variance = 0.0;
    mean_tuples = 0.0;
    mean_wall_seconds = wall;
    mean_cpu_seconds = cpu;
    mean_draw_seconds = 0.0;
    zero_runs = zero;
  }

let mk_result name jvd theta cells =
  { Exp_two_table.name; jvd; truth = 100; theta; cells }

let timing_config =
  {
    Config.default with
    Config.thetas = [ 0.01; 0.001 ];
    jvd_threshold = 0.001;
  }

let find_summary label summaries =
  match
    List.find_opt (fun s -> s.Timing.approach = label) summaries
  with
  | Some s -> s
  | None -> Alcotest.fail ("no summary for " ^ label)

let test_timing_summary_means () =
  let results =
    [
      (* small jvd: CSDL-Opt dispatches to "1,diff" *)
      mk_result "Qsmall" 0.0001 0.001
        [
          mk_cell "1,diff" 0.2 0.3 1;
          mk_cell "t,diff" 9.9 9.9 0;
          mk_cell "CS2L" 0.1 0.1 2;
        ];
      (* large jvd: CSDL-Opt dispatches to "t,diff" *)
      mk_result "Qlarge" 0.01 0.001
        [
          mk_cell "1,diff" 9.9 9.9 0;
          mk_cell "t,diff" 0.4 0.5 0;
          mk_cell "CS2L" 0.2 0.2 1;
        ];
      (* wrong theta: must be ignored by the timing protocol *)
      mk_result "Qignored" 0.0001 0.01
        [
          mk_cell "1,diff" 100.0 100.0 9;
          mk_cell "t,diff" 100.0 100.0 9;
          mk_cell "CS2L" 100.0 100.0 9;
        ];
    ]
  in
  let summaries = Timing.run timing_config results in
  let opt = find_summary "CSDL-Opt" summaries in
  Alcotest.check exact_float "opt wall mean" ((0.2 +. 0.4) /. 2.0)
    opt.Timing.mean_wall_seconds;
  Alcotest.check exact_float "opt cpu mean" ((0.3 +. 0.5) /. 2.0)
    opt.Timing.mean_cpu_seconds;
  Alcotest.(check int) "opt measured" 2 opt.Timing.queries_measured;
  Alcotest.(check int) "opt total" 2 opt.Timing.queries_total;
  Alcotest.(check int) "opt zero-estimate runs" 1 opt.Timing.zero_estimate_runs;
  Alcotest.check exact_float "opt fraction under 0.5s" 1.0
    opt.Timing.fraction_under;
  let cs2l = find_summary "CS2L" summaries in
  Alcotest.check exact_float "cs2l wall mean" ((0.1 +. 0.2) /. 2.0)
    cs2l.Timing.mean_wall_seconds;
  Alcotest.(check int) "cs2l zero-estimate runs" 3
    cs2l.Timing.zero_estimate_runs;
  (* threshold 0.15s: 0.1 is under, 0.2 is not *)
  Alcotest.check exact_float "cs2l fraction under" 0.5
    cs2l.Timing.fraction_under

let test_timing_nan_cells_excluded () =
  let results =
    [
      mk_result "Qok" 0.0001 0.001
        [ mk_cell "1,diff" 0.2 0.3 0; mk_cell "CS2L" 0.1 0.1 0 ];
      mk_result "Qnan" 0.01 0.001
        [ mk_cell "t,diff" Float.nan Float.nan 2; mk_cell "CS2L" 0.3 0.3 0 ];
    ]
  in
  (* give Qok a t,diff cell and Qnan a 1,diff cell so lookups succeed *)
  let results =
    match results with
    | [ a; b ] ->
        [
          { a with Exp_two_table.cells = mk_cell "t,diff" 0.9 0.9 0 :: a.Exp_two_table.cells };
          { b with Exp_two_table.cells = mk_cell "1,diff" 0.9 0.9 0 :: b.Exp_two_table.cells };
        ]
    | _ -> assert false
  in
  let opt = find_summary "CSDL-Opt" (Timing.run timing_config results) in
  Alcotest.(check int) "NaN cell not measured" 1 opt.Timing.queries_measured;
  Alcotest.(check int) "but still counted" 2 opt.Timing.queries_total;
  Alcotest.check exact_float "mean over measured cells only" 0.2
    opt.Timing.mean_wall_seconds;
  Alcotest.(check int) "zero runs of ALL cells counted" 2
    opt.Timing.zero_estimate_runs

let test_timing_missing_label_named () =
  let results =
    [ mk_result "Qx" 0.0001 0.001 [ mk_cell "1,diff" 0.1 0.1 0 ] ]
  in
  match Timing.run timing_config results with
  | _ -> Alcotest.fail "expected a Failure naming the missing label"
  | exception Failure msg ->
      Alcotest.(check bool)
        ("message names the label and query: " ^ msg)
        true
        (contains msg "CS2L" && contains msg "Qx")

let test_find_cell_error_message () =
  match
    Exp_two_table.find_cell ~context:"unit test" "nope"
      [ mk_cell "1,diff" 0.1 0.1 0 ]
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool)
        ("message names context, label and candidates: " ^ msg)
        true
        (contains msg "unit test" && contains msg "nope"
        && contains msg "1,diff")

(* ------------------------------------------------------------------ *)
(* The cell loop                                                       *)
(* ------------------------------------------------------------------ *)

module Summary = Repro_util.Summary

type event = Draw of int | Estimate of int

(* A fake estimator: run [i] draws the synopsis [i] and estimates
   [values.(i)], logging both calls. *)
let fake_cell ?clock ?(label = "fake") ~truth values =
  let log = ref [] in
  let cell =
    Cell.run ?clock ~label ~runs:(Array.length values) ~truth
      ~tuples:(fun i -> 10 * (i + 1))
      ~draw:(fun i ->
        log := Draw i :: !log;
        i)
      ~estimate:(fun i ->
        log := Estimate i :: !log;
        values.(i))
      ()
  in
  (cell, List.rev !log)

let test_cell_run_order () =
  let values = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  let cell, log = fake_cell ~truth:2.0 values in
  Alcotest.(check bool)
    "each run draws with its index, then estimates that draw" true
    (log = List.concat_map (fun i -> [ Draw i; Estimate i ]) [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check (array exact_float)) "estimates in run order" values
    cell.Cell.estimates;
  Alcotest.(check string) "label" "fake" cell.Cell.label;
  Alcotest.check exact_float "mean tuples" 30.0 cell.Cell.mean_tuples

let test_cell_zero_runs () =
  let cell, _ = fake_cell ~truth:5.0 [| 0.0; 2.0; 0.0; 0.0; 7.0; 1e-300 |] in
  Alcotest.(check int) "zero estimates counted" 3 cell.Cell.zero_runs;
  let none, _ = fake_cell ~truth:5.0 [| 1.0; 2.0 |] in
  Alcotest.(check int) "no zero estimate" 0 none.Cell.zero_runs

let test_cell_summary () =
  let truth = 40.0 in
  let values = [| 30.0; 55.0; 0.0; 41.0; Float.infinity; 38.5 |] in
  let cell, _ = fake_cell ~truth values in
  let qerrors =
    Array.map
      (fun estimate -> Repro_stats.Qerror.compute ~truth ~estimate)
      values
  in
  Alcotest.check exact_float "median estimate" (Summary.median values)
    cell.Cell.median_estimate;
  Alcotest.check exact_float "median q-error" (Summary.median qerrors)
    cell.Cell.median_qerror;
  Alcotest.check exact_float "relative variance"
    (Summary.relative_variance ~truth values)
    cell.Cell.rel_variance;
  let finite, _ = fake_cell ~truth [| 30.0; 55.0; 41.0; 38.5 |] in
  Alcotest.check exact_float "finite relative variance"
    (Summary.relative_variance ~truth [| 30.0; 55.0; 41.0; 38.5 |])
    finite.Cell.rel_variance

(* Under a counter clock every timed section lasts one step: the draw
   timer and the estimate timer each read exactly one per run. *)
let test_cell_timers_one_step () =
  let step = 0.125 in
  let cell, _ =
    fake_cell ~clock:(Clock.counter ~step ()) ~truth:1.0 [| 1.0; 2.0; 3.0 |]
  in
  Alcotest.check exact_float "estimate wall = one step" step
    cell.Cell.mean_wall_seconds;
  Alcotest.check exact_float "draw wall = one step" step
    cell.Cell.mean_draw_seconds

(* A clock the fake calls move: each draw lasts 1 s and each estimate
   10 s, so the two timers cannot be mistaken for each other. *)
let test_cell_timers_apart () =
  let now = ref 0.0 in
  let cell =
    Cell.run ~clock:(fun () -> !now) ~label:"timed" ~runs:4 ~truth:1.0
      ~draw:(fun i -> now := !now +. 1.0; i)
      ~estimate:(fun _ -> now := !now +. 10.0; 1.0)
      ()
  in
  Alcotest.check exact_float "draw time" 1.0 cell.Cell.mean_draw_seconds;
  Alcotest.check exact_float "estimate time" 10.0 cell.Cell.mean_wall_seconds

let test_cell_record () =
  let cell, _ = fake_cell ~label:"1,diff" ~truth:4.0 [| 2.0; 0.0; 5.0 |] in
  let r =
    Cell.record ~experiment:"table8" ~query:"s1-z4" ~theta:0.001 ~jvd:0.25
      ~truth:4.0 cell
  in
  Alcotest.(check string) "experiment" "table8" r.Provenance.experiment;
  Alcotest.(check string) "query" "s1-z4" r.Provenance.query;
  Alcotest.(check string) "variant is the label" "1,diff" r.Provenance.variant;
  Alcotest.check exact_float "theta" 0.001 r.Provenance.theta;
  Alcotest.check exact_float "jvd" 0.25 r.Provenance.jvd;
  Alcotest.check exact_float "sample tuples" cell.Cell.mean_tuples
    r.Provenance.sample_tuples;
  Alcotest.check exact_float "truth" 4.0 r.Provenance.truth;
  Alcotest.check exact_float "estimate" cell.Cell.median_estimate
    r.Provenance.estimate;
  Alcotest.check exact_float "q-error" cell.Cell.median_qerror
    r.Provenance.qerror;
  Alcotest.(check string) "rung" "" r.Provenance.rung;
  Alcotest.(check int) "downgrades" 0 r.Provenance.downgrades;
  Alcotest.(check int) "runs" 3 r.Provenance.runs;
  Alcotest.(check int) "zero runs" 1 r.Provenance.zero_runs;
  Alcotest.check exact_float "wall" cell.Cell.mean_wall_seconds
    r.Provenance.wall_seconds;
  Alcotest.check exact_float "cpu" cell.Cell.mean_cpu_seconds
    r.Provenance.cpu_seconds;
  Alcotest.check exact_float "offline = mean draw time"
    cell.Cell.mean_draw_seconds r.Provenance.offline_wall_seconds

(* ------------------------------------------------------------------ *)
(* The grid                                                            *)
(* ------------------------------------------------------------------ *)

(* Context [c] lists rows of [cells_per_row.(c)] cells each; cell [j] of
   row [r] of context [c] answers (c, r, j). *)
let test_grid_results_to_their_rows () =
  let cells_per_row = [| [ 0 ]; [ 1 ]; [ 5 ]; []; [ 2; 0; 3 ] |] in
  let expected =
    List.concat
      (List.mapi
         (fun c counts ->
           List.mapi
             (fun r n -> ((c, r), List.init n (fun j -> (c, r, j))))
             counts)
         (Array.to_list cells_per_row))
  in
  List.iter
    (fun jobs ->
      let stage1 = Atomic.make 0 in
      let got =
        Grid.run ~jobs
          (fun c ->
            Atomic.incr stage1;
            List.mapi
              (fun r n -> ((c, r), List.init n (fun j () -> (c, r, j))))
              cells_per_row.(c))
          (List.init (Array.length cells_per_row) Fun.id)
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: stage 1 once per item" jobs)
        (Array.length cells_per_row) (Atomic.get stage1);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: every row gets its own cells, in order" jobs)
        true (got = expected))
    [ 1; 3 ]

let () =
  Alcotest.run "repro_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "map matches sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "map_array matches sequential" `Quick
            test_map_array_matches_sequential;
          Alcotest.test_case "chunked claims" `Quick test_map_array_chunked;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_array_empty_and_singleton;
          Alcotest.test_case "jobs clamped to items" `Quick
            test_jobs_clamped_to_items;
          Alcotest.test_case "lowest-index exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "skewed durations preserve order" `Quick
            test_skewed_durations_preserve_order;
          Alcotest.test_case "decreasing durations with chunking" `Quick
            test_decreasing_durations_with_chunking;
          Alcotest.test_case "slow lowest-index exception wins" `Quick
            test_slow_low_index_exception_wins;
        ] );
      ( "grid determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=3 bit-identical" `Slow
            test_grid_jobs_invariant;
          Alcotest.test_case "injected clock drives timings" `Slow
            test_grid_injected_clock_and_timing;
        ] );
      ( "timing summary",
        [
          Alcotest.test_case "means and fractions" `Quick
            test_timing_summary_means;
          Alcotest.test_case "NaN cells excluded but counted" `Quick
            test_timing_nan_cells_excluded;
          Alcotest.test_case "missing label is named" `Quick
            test_timing_missing_label_named;
          Alcotest.test_case "find_cell error message" `Quick
            test_find_cell_error_message;
        ] );
      ( "cell loop",
        [
          Alcotest.test_case "runs in order, draw given its index" `Quick
            test_cell_run_order;
          Alcotest.test_case "zero runs counted" `Quick test_cell_zero_runs;
          Alcotest.test_case "medians and variance are Summary's" `Quick
            test_cell_summary;
          Alcotest.test_case "each timer reads one step" `Quick
            test_cell_timers_one_step;
          Alcotest.test_case "draw and estimate timed apart" `Quick
            test_cell_timers_apart;
          Alcotest.test_case "provenance record" `Quick test_cell_record;
        ] );
      ( "grid",
        [
          Alcotest.test_case "results reach their rows at jobs 1 and 3" `Quick
            test_grid_results_to_their_rows;
        ] );
    ]
