(* The repo's benchmark: drives the shipped [repro_cli synopsis-build] and
   [repro_cli serve] over loopback for one workload and one seed, checks
   every reply against the library, and prints one JSON result line.

     perfbench.exe --workload serve-hot --seed 1 --seconds 30 --trace 0 \
       --cli .bench_build/default/bin/repro_cli.exe --cpu 1

   run.py builds it and pins it (and so every child) to one vCPU. One
   connection, one daemon worker, one load-generator thread: a closed
   loop that never needs two vCPUs at once. Every time and rate is
   host-adjusted by the reference slices of {!Host}. See README.md. *)

type workload = {
  name : string;
  scale : float;
  cache_capacity : int;  (** the daemon's --cache-capacity *)
  setups : int;
  snapshots : int;  (** refresh: the ring of data snapshots; else 1 *)
  warm_cycles : int;  (** refresh cycles before the window *)
  reads_per_cycle : int;
  reloads_after : int;  (** reloads timed after a serving window *)
  replay_requests : int;  (** request lines replayed in-process when traced *)
}

let workloads ~tiny =
  let w name scale cache_capacity setups snapshots replay_requests =
    {
      name;
      scale;
      cache_capacity;
      setups;
      snapshots;
      warm_cycles = (if snapshots > 1 then 4 else 0);
      reads_per_cycle = 1000;
      reloads_after = (if snapshots > 1 then 0 else 9);
      replay_requests;
    }
  in
  if tiny then
    (* 15 set-ups: a traced run's reconciliation holds their median
       against the replay, and tiny set-ups are close to its 30 ms floor *)
    [
      { (w "serve-hot" 0.005 32 15 1 50) with reloads_after = 1 };
      { (w "serve-miss" 0.002 2 15 1 20) with reloads_after = 1 };
      { (w "refresh" 0.005 32 15 3 50) with warm_cycles = 1; reads_per_cycle = 30 };
    ]
  else
    [
      (* steady-state optimizer traffic: all 8 graphs resident *)
      { (w "serve-hot" 0.1 32 19 1 20000) with reloads_after = 15 };
      (* 8 keys through 2 cache slots: most requests decode the store *)
      { (w "serve-miss" 0.005 2 50 1 300) with reloads_after = 40 };
      (* rebuild + reload of the next snapshot beside a fixed read load *)
      w "refresh" 0.1 32 5 5 5000;
    ]

(* ---------------- arguments ---------------- *)

let workload_name = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)
let cli = ref ""
let cpu = ref (-1)
let tiny = ref false
let doctor = ref ""
let dump_inputs = ref ""

let args =
  [
    ("--workload", Arg.Set_string workload_name, "NAME serve-hot | serve-miss | refresh");
    ("--seed", Arg.Set_int seed, "N request-stream seed");
    ("--seconds", Arg.Set_int seconds, "S length of the measured window");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--cli", Arg.Set_string cli, "PATH repro_cli executable");
    ("--cpu", Arg.Set_int cpu, "N the vCPU the process is pinned to (reported)");
    ("--tiny", Arg.Set tiny, " tiny inputs, for the self-test");
    ( "--doctor-reply",
      Arg.Set_string doctor,
      "CLASS alter the value of the first ok or degraded reply (self-test of the oracle)" );
    ("--dump-inputs", Arg.Set_string dump_inputs, "FILE write the generated inputs and exit");
  ]

let say fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---------------- run state ---------------- *)

type sample = { raw : float; adj : float }

type run = {
  w : workload;
  work : string;
  store : string;  (** the served store path *)
  dirs : string array;  (** snapshot CSV directories *)
  reqs : Inputs.request array;
  stream : int array;
  mutable oracle : string array array;  (** expected [ok] reply per generation, request *)
  mutable outcomes : string array array;  (** the engine's outcome per generation, request *)
  mutable digests : Digest.t array;  (** store bytes per generation *)
  mutable setups : sample list;
  mutable builds : sample list;
  mutable reloads : sample list;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable replies : int;  (** estimate requests sent *)
  mutable answered : int;  (** [ok] replies *)
  mutable degraded : int;  (** [degraded] replies the engine gives too *)
  failed_by : (string, int) Hashtbl.t;
  mutable doctored : bool;
  ok_counts : int array array;  (** ok replies per generation, request *)
}

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let build_store r ~gen ~store =
  let dir = r.dirs.(gen) in
  Proc.run ~timeout:120.0
    ~stdout:(Filename.concat r.work "build.out")
    ~stderr:(Filename.concat r.work "build.err")
    !cli
    ([ "synopsis-build" ]
    @ List.map (Inputs.graph_arg dir) Inputs.graphs
    @ [ "--theta"; string_of_float Inputs.theta; "--store"; store ])

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int; port : int; mutable conn : Wire.t }

let parse_port text =
  let marker = " on 127.0.0.1:" in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length text then None
    else if String.sub text i m = marker then
      let j = ref (i + m) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + m) (!j - i - m))
    else find (i + 1)
  in
  find 0

let ready conn =
  let line = Wire.call conn "ready\n" in
  if not (String.starts_with ~prefix:"ok ready" line) then
    Proc.fail "ready: unexpected reply %S" line

(* serve --port 0; the port comes from the "serving ... on host:port" line
   on stderr, which goes to a file. Bounded: 60 s to that line. *)
let start_daemon r =
  let err = Filename.concat r.work "serve.err" in
  let pid =
    Proc.spawn ~stderr:err !cli
      [
        "serve"; "--store"; r.store; "--port"; "0"; "--jobs"; "1";
        "--cache-capacity"; string_of_int r.w.cache_capacity;
      ]
  in
  let deadline = Host.now () +. 60.0 in
  let rec wait () =
    let text = try Proc.read_file err with Sys_error _ -> "" in
    match parse_port text with
    | Some port -> port
    | None ->
        if Host.now () > deadline then Proc.fail "serve: no serving line within 60s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            Proc.reaped pid;
            Proc.fail "serve exited early: %s" text);
        Unix.sleepf 0.0005;
        wait ()
  in
  let port = wait () in
  let conn = Wire.connect port in
  (* the first request on a connection is charged from accept time *)
  ready conn;
  { pid; port; conn }

let stop_daemon d =
  Wire.close d.conn;
  Proc.stop d.pid

(* ---------------- set-up ---------------- *)

(* CSVs on disk -> synopsis-build -> serve -> first "ok ready", bracketed
   by reference slices. *)
let setup r =
  let before = Host.bracket () in
  let t0 = Host.now () in
  build_store r ~gen:0 ~store:r.store;
  let t_build = Host.now () in
  let d = start_daemon r in
  let t1 = Host.now () in
  let after = Host.bracket () in
  let f = Host.factor [ before; after ] in
  r.setups <- { raw = t1 -. t0; adj = (t1 -. t0) *. f } :: r.setups;
  r.builds <- { raw = t_build -. t0; adj = (t_build -. t0) *. f } :: r.builds;
  if Digest.file r.store <> r.digests.(0) then
    Proc.fail "synopsis-build is not deterministic: store bytes differ";
  d

(* ---------------- the closed loop ---------------- *)

type window = {
  t0 : float;
  mutable refs : (float * float) list;  (** (offset in the window, slice us) *)
  mutable rss : float list;
  mutable next_ref : float;
  mutable next_rss : float;
  lat : float array;  (** raw round trip, seconds *)
  at : float array;  (** send offset in the window *)
  mutable n : int;
  traced : bool;
}

let new_window ~traced ~capacity =
  let t0 = Host.now () in
  {
    t0;
    refs = [];
    rss = [];
    next_ref = t0;
    next_rss = t0;
    lat = Array.make capacity 0.0;
    at = Array.make capacity 0.0;
    n = 0;
    traced;
  }

let slice ?(measure = Host.measure) win =
  let t = Host.now () in
  let us = measure () in
  win.refs <- (t -. win.t0, us) :: win.refs;
  us

(* Between requests: a reference slice every ~10 ms, an RSS sample every
   second. Neither is inside any timed request. *)
let tick win d =
  let t = Host.now () in
  if t >= win.next_ref then begin
    ignore (slice win);
    win.next_ref <- Host.now () +. 0.01
  end;
  if t >= win.next_rss then begin
    win.rss <- Proc.rss_mb d.pid :: win.rss;
    win.next_rss <- win.next_rss +. 1.0
  end

(* Replies carry the server-assigned request ID after the status word;
   the oracle compares what follows it. *)
let strip_id line =
  match String.index_opt line ' ' with
  | Some i
    when i + 4 <= String.length line && String.sub line (i + 1) 3 = "id=" -> (
      match String.index_from_opt line (i + 1) ' ' with
      | Some j -> String.sub line 0 i ^ String.sub line j (String.length line - j)
      | None -> String.sub line 0 i)
  | _ -> line

(* An [ok] reply must equal the library's value; a [degraded] one, where
   the engine built in-process degrades the same request, must equal the
   engine's reply, and is counted apart (defect b of README.md). Anything
   else - no reply, err, shed, deadline_exceeded, or a degraded reply to a
   request the engine answers - fails. *)
let classify r ~gen ~ri reply =
  r.attempted <- r.attempted + 1;
  r.replies <- r.replies + 1;
  let wrong line expected =
    r.wrong <- r.wrong + 1;
    if r.wrong <= 5 then
      say "reply %S for %S differs from the oracle %S" line r.reqs.(ri).line expected
  in
  match reply with
  | None ->
      r.failed <- r.failed + 1;
      bump r.failed_by "no_reply"
  | Some line ->
      let line = strip_id line in
      let line =
        let prefix = !doctor ^ " " in
        if !doctor <> "" && (not r.doctored) && String.starts_with ~prefix line then begin
          r.doctored <- true;
          let n = String.length prefix in
          String.sub line 0 n ^ "1" ^ String.sub line n (String.length line - n)
        end
        else line
      in
      let expected = r.outcomes.(gen).(ri) in
      if String.starts_with ~prefix:"ok " line then begin
        r.answered <- r.answered + 1;
        if String.equal line r.oracle.(gen).(ri) then
          r.ok_counts.(gen).(ri) <- r.ok_counts.(gen).(ri) + 1
        else wrong line r.oracle.(gen).(ri)
      end
      else if
        String.starts_with ~prefix:"degraded " line
        && String.starts_with ~prefix:"degraded " expected
      then begin
        r.degraded <- r.degraded + 1;
        if not (String.equal line expected) then wrong line expected
      end
      else begin
        r.failed <- r.failed + 1;
        let cls =
          match String.index_opt line ' ' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        bump r.failed_by cls
      end

(* One estimate round trip. No reply within the socket timeout counts at
   the time waited and replaces the connection. *)
let request r win d ~gen ~k =
  let ri = r.stream.(k mod Array.length r.stream) in
  let line = r.reqs.(ri).line in
  let start = Host.now () in
  let reply =
    try Some (Wire.call d.conn line)
    with Wire.Timeout | End_of_file | Unix.Unix_error _ -> None
  in
  let stop = Host.now () in
  if win.n < Array.length win.lat then begin
    win.lat.(win.n) <- stop -. start;
    win.at.(win.n) <- start -. win.t0;
    win.n <- win.n + 1
  end;
  if win.traced then
    Spans.emit ~rid:(Printf.sprintf "req-%d" k) ~name:"client.estimate" ~start ~stop ();
  classify r ~gen ~ri reply;
  if reply = None then begin
    Wire.close d.conn;
    d.conn <- Wire.connect d.port;
    ready d.conn
  end

(* The host factor of each request: the median of the slices taken within
   50 ms of it (one every ~10 ms). The 2-vCPU cloud VM this was tuned on
   flips between a fast and a ~1.5x slower state every 50-200 ms, too
   fast for a per-second median to follow. *)
let factors (win : window) =
  let refs = Array.of_list (List.rev win.refs) in
  let m = Array.length refs in
  let lo = ref 0 in
  Array.init win.n (fun i ->
      let start = win.at.(i) -. 0.05 and stop = win.at.(i) +. win.lat.(i) +. 0.05 in
      (* requests and slices are both in time order *)
      while !lo < m - 1 && fst refs.(!lo) < start do incr lo done;
      let near = ref [] and j = ref !lo in
      while !j < m && fst refs.(!j) <= stop do
        near := snd refs.(!j) :: !near;
        incr j
      done;
      let near = if !near = [] && m > 0 then [ snd refs.(min !lo (m - 1)) ] else !near in
      Host.factor [ Stat.median near ])

type window_stats = {
  n : int;
  rate_raw : float;
  rate_adj : float;
  p50_raw : float;  (** seconds *)
  p50_adj : float;
  p99_raw : float;
  p99_adj : float;
  rss_mb : float;
  mid_factor : float;  (** the window's median host factor *)
}

let stats (win : window) =
  let f = factors win in
  let raw = Array.to_list (Array.sub win.lat 0 win.n) in
  let adj = List.init win.n (fun i -> win.lat.(i) *. f.(i)) in
  let sum = List.fold_left ( +. ) 0.0 in
  {
    n = win.n;
    rate_raw = float win.n /. sum raw;
    rate_adj = float win.n /. sum adj;
    p50_raw = Stat.median raw;
    p50_adj = Stat.median adj;
    p99_raw = Stat.rank raw 0.99;
    p99_adj = Stat.rank adj 0.99;
    rss_mb = Stat.median win.rss;
    mid_factor = Stat.median (Array.to_list f);
  }

(* serve-hot / serve-miss: requests back to back for [seconds]. *)
let serve_window r d ~traced ~capacity =
  let win = new_window ~traced ~capacity in
  let stop = win.t0 +. float !seconds in
  let k = ref 0 in
  while Host.now () < stop do
    tick win d;
    request r win d ~gen:0 ~k:!k;
    incr k
  done;
  win

(* A timed reload round trip, bracketed by slices. *)
let reload r win d =
  let before = match win with Some w -> slice ~measure:Host.bracket w | None -> Host.bracket () in
  let t0 = Host.now () in
  let reply = try Some (Wire.call d.conn "reload\n") with Wire.Timeout | End_of_file | Unix.Unix_error _ -> None in
  let t1 = Host.now () in
  let after = match win with Some w -> slice ~measure:Host.bracket w | None -> Host.bracket () in
  r.attempted <- r.attempted + 1;
  (match reply with
  | Some l when String.starts_with ~prefix:"ok reloaded" l -> ()
  | other ->
      r.failed <- r.failed + 1;
      bump r.failed_by "reload";
      say "reload failed: %s" (Option.value ~default:"no reply" other));
  r.reloads <- { raw = t1 -. t0; adj = (t1 -. t0) *. Host.factor [ before; after ] } :: r.reloads

(* refresh: cycles of rebuild-next-snapshot, reload, fixed reads, for as
   long as [more ()] says. *)
let refresh_cycles r d ~win ~gen ~k ~more =
  while more () do
    let next = (!gen + 1) mod r.w.snapshots in
    let before = slice ~measure:Host.bracket win in
    let t0 = Host.now () in
    build_store r ~gen:next ~store:r.store;
    let t1 = Host.now () in
    let after = slice ~measure:Host.bracket win in
    r.builds <- { raw = t1 -. t0; adj = (t1 -. t0) *. Host.factor [ before; after ] } :: r.builds;
    if Digest.file r.store <> r.digests.(next) then
      Proc.fail "refresh build of snapshot %d is not deterministic" next;
    reload r (Some win) d;
    gen := next;
    for _ = 1 to r.w.reads_per_cycle do
      tick win d;
      request r win d ~gen:next ~k:!k;
      incr k
    done;
    win.rss <- Proc.rss_mb d.pid :: win.rss
  done

(* ---------------- daemon metrics (traced runs) ---------------- *)

let scrape d =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' (Wire.metrics d.conn)
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | Some i -> (
               match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
               | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
               | None -> ())
           | None -> ());
  tbl

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

(* Quantile of the [server.request.seconds] observations gained between
   two scrapes, with the histogram's own bucket interpolation. The scrape
   lists cumulative counts of non-empty buckets only. *)
let gained_quantile before after q =
  let module H = Repro_obs.Metrics.Histogram in
  let prefix = "server_request_seconds_bucket{le=\"" in
  let buckets tbl =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix k then
          let le = String.sub k (String.length prefix) (String.length k - String.length prefix - 2) in
          if le = "+Inf" then acc else (float_of_string le, v) :: acc
        else acc)
      tbl []
  in
  let cumulative tbl le =
    List.fold_left (fun acc (u, c) -> if u <= le then Float.max acc c else acc) 0.0 (buckets tbl)
  in
  let counts = Array.make H.bucket_count 0 in
  let prev = ref 0.0 in
  List.iter
    (fun (upper, _) ->
      let gained = cumulative after upper -. cumulative before upper in
      let i = H.bucket_index (upper *. 0.75) in
      counts.(i) <- counts.(i) + int_of_float (gained -. !prev);
      prev := gained)
    (List.sort compare (buckets after));
  let total = Array.fold_left ( + ) 0 counts in
  H.quantile_of ~bucket:(fun i -> counts.(i)) ~total q

(* ---------------- output ---------------- *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms)

let med f l = Stat.median (List.map f l)

(* ---------------- main ---------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let prepare_inputs w ~work =
  let data = Repro_datagen.Imdb.generate ~scale:w.scale ~seed:Inputs.data_seed () in
  let dirs =
    Array.init w.snapshots (fun k -> Filename.concat work (Printf.sprintf "snap%d" k))
  in
  Array.iteri
    (fun k dir ->
      Inputs.write_snapshot ~dir ?churn:(if w.snapshots > 1 then Some k else None) data)
    dirs;
  let n_title = Repro_relation.Table.cardinality data.title in
  let reqs = Inputs.requests ~seed:!seed ~n_title in
  (dirs, reqs)

let dump path w ~work =
  let dirs, reqs = prepare_inputs w ~work in
  let stream = Inputs.stream ~seed:!seed ~distinct:(Array.length reqs) ~len:5000 in
  let oc = open_out_bin path in
  Array.iter (fun (r : Inputs.request) -> output_string oc r.line) reqs;
  Array.iter (fun i -> output_string oc (string_of_int i ^ "\n")) stream;
  Array.iter
    (fun dir ->
      List.iter
        (fun t ->
          output_string oc (Digest.to_hex (Digest.file (Inputs.csv dir t)) ^ "\n"))
        Inputs.table_names)
    dirs;
  close_out oc

let main () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  let w =
    match List.find_opt (fun w -> w.name = !workload_name) (workloads ~tiny:!tiny) with
    | Some w -> w
    | None -> Proc.fail "unknown workload %S" !workload_name
  in
  if !seed < 0 || (!dump_inputs = "" && (!seconds < 1 || (!trace <> 0 && !trace <> 1) || !cli = ""))
  then Proc.fail "need --seed, --seconds, --trace 0|1 and --cli";
  (* Not named after the seed: the store records its tables' paths, so a
     longer seed would make a longer store and move store_kb. *)
  let work = Filename.concat ".perfbench_run" w.name in
  rm_rf work;
  mkdir_p work;
  if !dump_inputs <> "" then begin
    dump !dump_inputs w ~work;
    rm_rf work;
    exit 0
  end;
  (match Proc.other_daemons () with
  | [] -> ()
  | pids ->
      Proc.fail "another repro_cli serve is running (pid %s); refusing to time"
        (String.concat ", " (List.map string_of_int pids)));
  let traced = !trace = 1 in
  say "workload %s, seed %d, %ds window, pinned to vCPU %d" w.name !seed !seconds !cpu;
  (* ---- inputs, all before timing ---- *)
  let dirs, reqs = prepare_inputs w ~work in
  let stream = Inputs.stream ~seed:!seed ~distinct:(Array.length reqs) ~len:400_000 in
  let r =
    {
      w;
      work;
      store = Filename.concat work "served.bin";
      dirs;
      reqs;
      stream;
      oracle = [||];
      outcomes = [||];
      digests = [||];
      setups = [];
      builds = [];
      reloads = [];
      attempted = 0;
      failed = 0;
      wrong = 0;
      replies = 0;
      answered = 0;
      degraded = 0;
      failed_by = Hashtbl.create 8;
      doctored = false;
      ok_counts = Array.init w.snapshots (fun _ -> Array.make (Array.length reqs) 0);
    }
  in
  (* one untimed build per generation: the oracle's store, the expected
     store bytes, and a warm page cache for the timed builds *)
  let refs =
    Array.init w.snapshots (fun gen ->
        let store = Filename.concat work (Printf.sprintf "oracle%d.bin" gen) in
        build_store r ~gen ~store;
        store)
  in
  r.digests <- Array.map Digest.file refs;
  r.oracle <- Array.map (fun store -> Inputs.oracle ~store reqs) refs;
  r.outcomes <- Array.map (fun store -> Inputs.outcomes ~store reqs) refs;
  let truths = if traced then Inputs.truths ~dir:dirs.(0) reqs else [||] in
  let store_kb = float (Unix.stat refs.(0)).Unix.st_size /. 1024.0 in
  let store_bytes = float (Unix.stat refs.(0)).Unix.st_size in
  say "%d distinct requests (%d degraded by the engine), store %.1f KB" (Array.length reqs)
    (Array.fold_left
       (fun n o -> if String.starts_with ~prefix:"degraded " o then n + 1 else n)
       0 r.outcomes.(0))
    store_kb;
  (* the oracles' tables and engines are garbage now; keep them out of
     the load generator's heap while it times *)
  Gc.compact ();
  (* ---- set-ups; the last daemon stays up ---- *)
  let rec setups i =
    let d = setup r in
    if i + 1 < w.setups then begin
      stop_daemon d;
      setups (i + 1)
    end
    else d
  in
  let d = setups 0 in
  let capacity = 1_000_000 in
  let before = if traced then Some (scrape d) else None in
  (* ---- the window ---- *)
  let gen = ref 0 and k = ref 0 in
  if w.snapshots > 1 then begin
    (* the window starts once the LRU holds its steady-state generations;
       the warm-up's builds and reloads are not part of the sample *)
    let builds = r.builds in
    let left = ref w.warm_cycles in
    refresh_cycles r d ~win:(new_window ~traced:false ~capacity) ~gen ~k ~more:(fun () ->
        decr left;
        !left >= 0);
    r.builds <- builds;
    r.reloads <- []
  end;
  let run_window ~traced =
    if w.snapshots > 1 then begin
      let win = new_window ~traced ~capacity in
      let stop = win.t0 +. float !seconds in
      refresh_cycles r d ~win ~gen ~k ~more:(fun () -> Host.now () < stop);
      win
    end
    else serve_window r d ~traced ~capacity
  in
  let replies0 = r.replies and answered0 = r.answered in
  let win = run_window ~traced:false in
  let ws = stats win in
  let answered_pct =
    100.0 *. float (r.answered - answered0) /. float (max 1 (r.replies - replies0))
  in
  let after = if traced then Some (scrape d) else None in
  for _ = 1 to w.reloads_after do
    reload r None d
  done;
  let traced_ws =
    if traced then begin
      let setups_ = r.setups and builds = r.builds and reloads = r.reloads in
      let s = stats (run_window ~traced:true) in
      r.setups <- setups_;
      r.builds <- builds;
      r.reloads <- reloads;
      Some s
    end
    else None
  in
  (try ignore (Wire.call d.conn "quit\n") with Wire.Timeout | End_of_file | Unix.Unix_error _ -> ());
  stop_daemon d;
  let setup_adj = med (fun s -> s.adj) r.setups in
  let e2e =
    [
      ("setup_s", setup_adj, "s");
      ("build_s", med (fun s -> s.adj) r.builds, "s");
      ("reload_s", med (fun s -> s.adj) r.reloads, "s");
      ("query_per_s", ws.rate_adj, "1/s");
      ("query_p99_ms", ws.p99_adj *. 1e3, "ms");
      ("server_rss_mb", ws.rss_mb, "MB");
      ("store_kb", store_kb, "KB");
      ("answered_pct", answered_pct, "%");
    ]
  in
  let raw =
    [
      ("setup_s", med (fun s -> s.raw) r.setups);
      ("build_s", med (fun s -> s.raw) r.builds);
      ("reload_s", med (fun s -> s.raw) r.reloads);
      ("query_per_s", ws.rate_raw);
      ("query_p99_ms", ws.p99_raw *. 1e3);
      ("query_p50_ms", ws.p50_raw *. 1e3);
      ("host.ref_us", Stat.median !Host.slices);
      ("requests", float ws.n);
      ("cpu", float !cpu);
    ]
  in
  Printf.printf "perfbench-raw %s\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) raw));
  Printf.printf "perfbench-replies answered=%d, degraded=%d\n" r.answered r.degraded;
  Printf.printf "perfbench-failed %s\n"
    (String.concat ", "
       (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) r.failed_by []));
  if ws.n < 1000 && not !tiny then say "warning: only %d requests in the window" ws.n;
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then Proc.fail "metric %s is %f" name v)
    e2e;
  let correct = r.wrong = 0 in
  if not traced then result ~correct ~attempted:r.attempted ~failed:r.failed e2e
  else begin
    let before = Option.get before and after = Option.get after in
    let tws = Option.get traced_ws in
    (* daemon-side, over the untraced window *)
    let srv q = gained_quantile before after q *. ws.mid_factor *. 1e6 in
    let delta k = get after k -. get before k in
    let estimates = delta "server_requests_total" in
    let hits = delta "synopsis_cache_hits" and misses = delta "synopsis_cache_misses" in
    (* in-process replay, each phase scaled by the slices around it *)
    let phase f =
      let b = Host.bracket () in
      let x = f () in
      let a = Host.bracket () in
      (x, Host.factor [ b; a ])
    in
    let replay_store = Filename.concat work "replay.bin" in
    (* the build replayed three times, the median kept: one replay is a
       single sample of a noisy host, and the reconciliation below holds
       it against the median of many set-ups (the span file keeps all
       three) *)
    let b, fb =
      let busy (b, f) = Replay.busy b *. f in
      List.init 3 (fun _ -> phase (fun () -> Replay.build ~dir:dirs.(0) ~out:replay_store))
      |> List.sort (fun x y -> Float.compare (busy x) (busy y))
      |> fun l -> List.nth l 1
    in
    let l, fl = phase (fun () -> Replay.load ~store:refs.(0)) in
    let count = min w.replay_requests (max 1 ws.n) in
    let e, fe =
      phase (fun () ->
          Replay.engine ~store:refs.(0) ~cache_capacity:w.cache_capacity ~reqs ~stream ~count)
    in
    let est, fs =
      phase (fun () -> Replay.estimate ~entries:l.Replay.entries ~reqs ~stream ~count:(min count 20000))
    in
    (* a set-up starts two processes; [repro_cli --version] prices one *)
    let starts, fp =
      phase (fun () ->
          List.init 5 (fun _ ->
              let t0 = Host.now () in
              Proc.run ~timeout:10.0 !cli [ "--version" ];
              Host.now () -. t0))
    in
    let process_start = Stat.median starts *. fp in
    let ms x f = x *. f *. 1e3 and us x f = x *. f *. 1e6 in
    let busy = (Replay.busy b *. fb) +. (e.Replay.create_s *. fe) in
    let unattributed = setup_adj -. busy in
    let handle_p50 = us (Stat.median e.Replay.handle_s) fe in
    let server_p50 = srv 0.5 in
    (* reconciliation: the replayed calls must account for the set-up, and
       the in-process handle must agree with the daemon's own timing *)
    let accounted = busy +. (2.0 *. process_start) in
    let setup_ok = Float.abs (accounted -. setup_adj) <= Float.max 0.03 (0.35 *. setup_adj) in
    let handle_ratio = handle_p50 /. server_p50 in
    let handle_ok = handle_ratio >= 1.0 /. 3.0 && handle_ratio <= 3.0 in
    say "setup %.4fs, replayed busy %.4fs + 2 process starts of %.4fs = %.0f%%; handle p50 %.1fus vs daemon %.1fus"
      setup_adj busy process_start (100.0 *. accounted /. setup_adj) handle_p50 server_p50;
    if not setup_ok then
      say "reconciliation failed: replayed busy time and process starts not within 35%% (or 30 ms) of setup_s";
    if not handle_ok then say "reconciliation failed: engine.handle_p50_us not within 3x of server.request_p50_us";
    let qerrors =
      List.concat
        (List.init (Array.length reqs) (fun i ->
             let c = r.ok_counts.(0).(i) and o = r.oracle.(0).(i) in
             match float_of_string_opt (String.sub o 3 (String.length o - 3)) with
             | Some v when c > 0 ->
                 let q = Repro_stats.Qerror.compute ~truth:truths.(i) ~estimate:v in
                 if Float.is_finite q then List.init c (fun _ -> q) else []
             | _ -> []))
    in
    let layer =
      [
        ("server.request_p50_us", server_p50, "us");
        ("server.request_p99_us", srv 0.99, "us");
        (* raw means, then adjusted: the daemon's histogram buckets are a
           factor of 2 wide, too coarse to subtract one median from
           another *)
        ( "net.roundtrip_self_us",
          ((1.0 /. ws.rate_raw) -. (delta "server_request_seconds_sum" /. Float.max 1.0 estimates))
          *. ws.mid_factor *. 1e6,
          "us" );
        ("protocol.parse_us", us (Stat.mean e.Replay.parse_s) fe, "us");
        ("protocol.render_us", us (Stat.mean e.Replay.render_s) fe, "us");
        ("engine.handle_p50_us", handle_p50, "us");
        ("engine.handle_p99_us", us (Stat.rank e.Replay.handle_s 0.99) fe, "us");
        ("engine.degraded", float (e.Replay.degraded_csdl + e.Replay.degraded_load), "count");
        ("engine.degraded.csdl", float e.Replay.degraded_csdl, "count");
        ("engine.degraded.synopsis_load", float e.Replay.degraded_load, "count");
        ("engine.create_s", e.Replay.create_s *. fe, "s");
        ("engine.reload_s", e.Replay.reload_s *. fe, "s");
        ("engine.live_mb", e.Replay.live_mb, "MB");
        ("synopsis_cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses), "ratio");
        ("synopsis_cache.evictions", delta "synopsis_cache_evictions", "count");
        ("synopsis_cache.loads", delta "server_loads_total", "count");
        ("estimate.p50_us", us (Stat.median est.Replay.est_s) fs, "us");
        ("estimate.p99_us", us (Stat.rank est.Replay.est_s 0.99) fs, "us");
        ("estimate.alloc_words", est.Replay.alloc_words, "words");
        ( "estimate.faults",
          float (est.Replay.faults_bad_input + est.Replay.faults_empty + est.Replay.faults_other),
          "count" );
        ("estimate.faults.bad_input", float est.Replay.faults_bad_input, "count");
        ("estimate.faults.empty_filtered_sample", float est.Replay.faults_empty, "count");
        ("estimate.faults.other", float est.Replay.faults_other, "count");
        ("discrete_learning.virtual_sample_size", est.Replay.virtual_sample_size, "tuples");
        ("simplex.iterations", est.Replay.simplex_iterations, "count");
        ("synopsis_store.decode_ms", ms (l.Replay.read_s -. l.Replay.resolver_s) fl, "ms");
        ( "synopsis_store.bytes_per_tuple",
          store_bytes /. float (max 1 b.Replay.sample_tuples),
          "bytes" );
        ("csv_io.read_ms", ms l.Replay.resolver_s fl, "ms");
        ("csv_io.read_calls", float l.Replay.resolver_calls, "count");
        ( "csv_io.reads_per_file",
          float l.Replay.resolver_calls /. float (max 1 l.Replay.files),
          "ratio" );
        ("table.fingerprint_ms", ms l.Replay.fingerprint_s fl, "ms");
        ("synopsis_flat.build_ms", ms l.Replay.flat_s fl, "ms");
        ("sentinel.seed_ms", ms b.Replay.sentinel_seed_s fb, "ms");
        ("sentinel.replay_ms", ms l.Replay.replay_s fl, "ms");
        ("profile.of_tables_ms", ms b.Replay.profile_s fb, "ms");
        ("opt.prepare_ms", ms b.Replay.prepare_s fb, "ms");
        ("synopsis_shard.draw_ms", ms b.Replay.draw_s fb, "ms");
        ("synopsis_shard.sample_tuples", float b.Replay.sample_tuples, "tuples");
        ("store.add_ms", ms b.Replay.add_s fb, "ms");
        ("store.save_ms", ms b.Replay.save_s fb, "ms");
        ( "gc.minor_per_request",
          delta "runtime_gc_minor_collections" /. Float.max 1.0 estimates,
          "count" );
        ("gc.major_collections", delta "runtime_gc_major_collections", "count");
        ( "gc.heap_mb",
          get after "runtime_gc_heap_words" *. float (Sys.word_size / 8) /. 1048576.0,
          "MB" );
        ("load.query_p50_ms", ws.p50_adj *. 1e3, "ms");
        ("host.ref_us", Stat.median !Host.slices, "us");
        ("host.ref_spread", Stat.spread !Host.slices, "ratio");
        ("trace.overhead_pct", 100.0 *. ((ws.rate_adj /. tws.rate_adj) -. 1.0), "%");
        ("setup.unattributed_s", unattributed, "s");
        ("quality.qerror_gmean", Stat.gmean qerrors, "ratio");
      ]
    in
    let trace_file = Filename.concat ".perfbench_run" (Printf.sprintf "trace-%s-%d.jsonl" w.name !seed) in
    Spans.write trace_file;
    say "spans written to %s" trace_file;
    result ~correct:(correct && setup_ok && handle_ok) ~attempted:r.attempted ~failed:r.failed layer
  end;
  rm_rf work

let () =
  let interrupted _ = raise (Proc.Failed "interrupted") in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let code =
    try
      main ();
      0
    with
    | Proc.Failed msg ->
        say "error: %s" msg;
        1
    | Arg.Bad msg | Arg.Help msg ->
        prerr_string msg;
        2
    | e ->
        say "error: %s" (Printexc.to_string e);
        1
  in
  Proc.stop_all ();
  exit code
