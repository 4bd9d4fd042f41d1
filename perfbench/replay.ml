(* The traced run's in-process replay: the offline build, the store load
   and the request lines of the window, made again in the benchmark's own
   (pinned) process by calling each layer's public functions directly.
   Every call gets one span; the per-layer metrics are sums, medians or
   counts over those calls. Times here are raw seconds; the caller scales
   each phase by the reference slices around it. *)

open Repro_relation
module Engine = Repro_server.Engine
module Protocol = Repro_server.Protocol
module Obs = Repro_obs.Obs

let timed = Spans.timed

(* ---------------- offline build ---------------- *)

type build = {
  csv_read_s : float;
  profile_s : float;
  prepare_s : float;
  draw_s : float;
  add_s : float;
  save_s : float;
  sentinel_seed_s : float;  (** inside [add]; measured again beside it *)
  sample_tuples : int;
}

(* What [repro_cli synopsis-build] does for the workload's graphs, call for
   call. [busy] below counts only the calls the CLI makes; sentinel
   seeding happens inside [Store.add] and is timed a second time beside
   it to split that cost out. *)
let build ~dir ~out =
  let s = Csdl.Store.create () in
  let csv = ref 0.0 and profile = ref 0.0 and prepare = ref 0.0 in
  let draw = ref 0.0 and add = ref 0.0 and seed = ref 0.0 in
  let tuples = ref 0 in
  let save_s, _ =
    Spans.parent "replay.synopsis_build" (fun root ->
        List.iter
          (fun (g : Inputs.graph) ->
            let lf = Inputs.csv dir g.left and rf = Inputs.csv dir g.right in
            let ta, t1 = timed ~parent:root "csv_io.read_auto" (fun () -> Csv_io.read_auto lf) in
            let tb, t2 = timed ~parent:root "csv_io.read_auto" (fun () -> Csv_io.read_auto rf) in
            csv := !csv +. t1 +. t2;
            let prof, t =
              timed ~parent:root "profile.of_tables" (fun () ->
                  Csdl.Profile.of_tables ta g.lcol tb g.rcol)
            in
            profile := !profile +. t;
            let est, t =
              timed ~parent:root "opt.prepare" (fun () ->
                  Csdl.Opt.prepare ~theta:Inputs.theta prof)
            in
            prepare := !prepare +. t;
            let stream = "synopsis/" ^ g.key in
            let prng = Repro_util.Prng.create_keyed ~seed:Inputs.data_seed stream in
            let syn, t =
              timed ~parent:root "synopsis_shard.draw" (fun () ->
                  Csdl.Synopsis_shard.merge
                    (Csdl.Synopsis_shard.build ~jobs:1
                       ~base:(Csdl.Synopsis.base_of_prng prng)
                       ~profile:(Csdl.Estimator.profile est)
                       ~resolved:(Csdl.Estimator.resolved est) ~shards:1 ()))
            in
            draw := !draw +. t;
            tuples := !tuples + Csdl.Synopsis.size_tuples syn;
            let (), t =
              timed ~parent:root "store.add" (fun () ->
                  Csdl.Store.add
                    ~prng_key:(Printf.sprintf "%d:%s" Inputs.data_seed stream)
                    ~shards:1 s ~key:g.key ~table_a:lf ~table_b:rf est syn)
            in
            add := !add +. t;
            let swapped = Csdl.Estimator.swapped est in
            let flat = Csdl.Synopsis_flat.of_synopsis syn in
            let user = Csdl.Estimator.profile est in
            let _, t =
              timed ~parent:root "sentinel.seed" (fun () ->
                  Csdl.Sentinel.seed (if swapped then Csdl.Profile.swap user else user)
                  |> Csdl.Sentinel.with_baselines flat ~swapped)
            in
            seed := !seed +. t)
          Inputs.graphs;
        snd (timed ~parent:root "store.save" (fun () -> Csdl.Store.save s out)))
  in
  {
    csv_read_s = !csv;
    profile_s = !profile;
    prepare_s = !prepare;
    draw_s = !draw;
    add_s = !add;
    save_s;
    sentinel_seed_s = !seed;
    sample_tuples = !tuples;
  }

let busy b = b.csv_read_s +. b.profile_s +. b.prepare_s +. b.draw_s +. b.add_s +. b.save_s

(* ---------------- store load ---------------- *)

type load = {
  read_s : float;  (** [Synopsis_store.read] including its resolver calls *)
  resolver_s : float;
  resolver_calls : int;
  files : int;
  flat_s : float;
  replay_s : float;
  fingerprint_s : float;
  entries : (string * (Csdl.Synopsis_flat.t * bool)) list;
      (** key -> cached flat view and orientation, as the engine holds them *)
}

let load ~store =
  let calls = ref 0 and resolver = ref 0.0 in
  let files = Hashtbl.create 16 in
  let stored, read_s =
    Spans.parent "synopsis_store.read" (fun root ->
        let resolve path =
          let t, dt = timed ~parent:root "csv_io.read_auto" (fun () -> Csv_io.read_auto path) in
          incr calls;
          resolver := !resolver +. dt;
          Hashtbl.replace files path ();
          t
        in
        match Csdl.Synopsis_store.read ~resolve_table:resolve ~path:store with
        | Ok e -> e
        | Error f -> Proc.fail "replay: %s" (Csdl.Fault.error_to_string f))
  in
  let flat_s = ref 0.0 and replay_s = ref 0.0 and fp_s = ref 0.0 in
  let entries =
    List.map
      (fun (s : Csdl.Synopsis_store.stored) ->
        let flat, t =
          timed "synopsis_flat.of_synopsis" (fun () ->
              Csdl.Synopsis_flat.of_synopsis s.synopsis)
        in
        flat_s := !flat_s +. t;
        let _, t =
          timed "sentinel.replay" (fun () ->
              List.map (Csdl.Sentinel.replay flat ~swapped:s.swapped) s.sentinels)
        in
        replay_s := !replay_s +. t;
        let _, t =
          timed "table.fingerprint" (fun () ->
              ( Table.fingerprint s.synopsis.Csdl.Synopsis.sample_a.Csdl.Sample.table,
                Table.fingerprint s.synopsis.Csdl.Synopsis.sample_b.Csdl.Sample.table ))
        in
        fp_s := !fp_s +. t;
        (s.key, (flat, s.swapped)))
      stored
  in
  {
    read_s;
    resolver_s = !resolver;
    resolver_calls = !calls;
    files = Hashtbl.length files;
    flat_s = !flat_s;
    replay_s = !replay_s;
    fingerprint_s = !fp_s;
    entries;
  }

(* ---------------- engine and protocol ---------------- *)

type engine = {
  create_s : float;
  reload_s : float;
  live_mb : float;
  handle_s : float list;
  parse_s : float list;
  render_s : float list;
  degraded_csdl : int;
  degraded_load : int;
}

let rid i = Printf.sprintf "replay-%d" i

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Build the engine the way [repro_cli serve] does and push the window's
   request lines through parse -> handle -> render. *)
let engine ~store ~cache_capacity ~(reqs : Inputs.request array) ~stream ~count =
  let config = { Engine.default_config with cache_capacity; seed = Inputs.data_seed } in
  let before = live_words () in
  let e, create_s =
    timed "engine.create" (fun () ->
        match Engine.create config ~resolve_table:Csv_io.read_auto ~store_path:store with
        | Ok e -> e
        | Error f -> Proc.fail "replay: %s" (Csdl.Fault.error_to_string f))
  in
  let live_mb =
    float (live_words () - before) *. float (Sys.word_size / 8) /. 1048576.0
  in
  let handle = ref [] and parse = ref [] and render = ref [] in
  let csdl = ref 0 and load = ref 0 in
  for i = 0 to count - 1 do
    let r = reqs.(stream.(i mod Array.length stream)) in
    let line = String.sub r.line 0 (String.length r.line - 1) in
    let rid = rid i in
    ignore
      (Spans.parent ~rid "request" (fun root ->
           let req, t = timed ~parent:root ~rid "protocol.parse_request" (fun () -> Protocol.parse_request line) in
           parse := t :: !parse;
           match req with
           | Ok (Protocol.Estimate { key; pred_a; pred_b; _ }) ->
               let deadline = Repro_server.Deadline.make ~budget_s:1.0 () in
               let outcome, t =
                 timed ~parent:root ~rid "engine.handle" (fun () ->
                     Engine.handle e ~deadline ~key ?pred_a ?pred_b ())
               in
               handle := t :: !handle;
               (match outcome with
               | Engine.Degraded { trace; _ } ->
                   if List.exists (fun (d : Csdl.Fault.degradation) -> d.rung = "csdl") trace
                   then incr csdl
                   else incr load
               | _ -> ());
               let _, t =
                 timed ~parent:root ~rid "protocol.render_outcome" (fun () ->
                     Protocol.render_outcome outcome)
               in
               render := t :: !render
           | _ -> Proc.fail "replay: request line did not parse: %s" line))
  done;
  let _, reload_s =
    timed "engine.reload" (fun () ->
        match Engine.reload e with
        | Ok _ -> ()
        | Error f -> Proc.fail "replay: %s" (Csdl.Fault.error_to_string f))
  in
  {
    create_s;
    reload_s;
    live_mb;
    handle_s = !handle;
    parse_s = !parse;
    render_s = !render;
    degraded_csdl = !csdl;
    degraded_load = !load;
  }

(* ---------------- estimate, discrete learning, simplex ---------------- *)

type estimate = {
  est_s : float list;
  alloc_words : float;  (** minor words per call *)
  faults_bad_input : int;
  faults_empty : int;
  faults_other : int;
  virtual_sample_size : float;  (** mean over discrete-learning calls *)
  simplex_iterations : float;  (** mean pivots per LP solve *)
}

let histogram_mean obs name =
  match Obs.registry obs with
  | None -> 0.0
  | Some reg ->
      List.fold_left
        (fun acc (n, _, p) ->
          match p with
          | Repro_obs.Metrics.P_histogram { count; sum; _ } when n = name && count > 0 ->
              sum /. float count
          | _ -> acc)
        0.0
        (Repro_obs.Metrics.Registry.snapshot reg)

(* [run_checked_flat] on the cached flat views, exactly as [Engine.handle]
   calls it on a cache hit. A second pass with a live context counts the
   learner's virtual samples and the LP's pivots through the public
   [?obs] argument, off the clock. *)
let estimate ~entries ~(reqs : Inputs.request array) ~stream ~count =
  let prepared =
    Array.map
      (fun (r : Inputs.request) ->
        let flat, swapped = List.assoc r.key entries in
        let a = Inputs.parse_side r.pred_a and b = Inputs.parse_side r.pred_b in
        let pa, pb = if swapped then (b, a) else (a, b) in
        (flat, pa, pb))
      reqs
  in
  let times = ref [] and words = ref 0.0 in
  let bad = ref 0 and empty = ref 0 and other = ref 0 in
  for i = 0 to count - 1 do
    let flat, pred_a, pred_b = prepared.(stream.(i mod Array.length stream)) in
    let w0 = Gc.minor_words () in
    let start = Host.now () in
    let r = Csdl.Estimate.run_checked_flat ?pred_a ?pred_b flat in
    let stop = Host.now () in
    let w1 = Gc.minor_words () in
    Spans.emit ~rid:(rid i) ~name:"estimate.run_checked_flat" ~start ~stop ();
    times := (stop -. start) :: !times;
    words := !words +. (w1 -. w0);
    match r with
    | Ok _ -> ()
    | Error (Csdl.Fault.Bad_input _) -> incr bad
    | Error (Csdl.Fault.Empty_filtered_sample _) -> incr empty
    | Error _ -> incr other
  done;
  let obs = Obs.create () in
  for i = 0 to count - 1 do
    let flat, pred_a, pred_b = prepared.(stream.(i mod Array.length stream)) in
    ignore (Csdl.Estimate.run_checked_flat ~obs ?pred_a ?pred_b flat)
  done;
  {
    est_s = !times;
    alloc_words = !words /. float (max 1 count);
    faults_bad_input = !bad;
    faults_empty = !empty;
    faults_other = !other;
    virtual_sample_size = histogram_mean obs "dl.virtual_sample.size";
    simplex_iterations = histogram_mean obs "lp.simplex.iterations";
  }
