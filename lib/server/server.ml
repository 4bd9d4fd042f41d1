module Clock = Repro_util.Clock
module Obs = Repro_obs.Obs
module Access_log = Repro_obs.Access_log
module Request_ctx = Repro_obs.Request_ctx

type config = {
  host : string;
  port : int;
  jobs : int;
  queue_capacity : int;
  queue_policy : Admission.policy;
  default_deadline_s : float;
  io_timeout_s : float;
  retry_after_s : float;
}

let default_config ~port =
  {
    host = "127.0.0.1";
    port;
    jobs = 4;
    queue_capacity = 64;
    queue_policy = Admission.Reject;
    default_deadline_s = 1.0;
    io_timeout_s = 10.0;
    retry_after_s = 0.05;
  }

type conn = { fd : Unix.file_descr; accepted_at : float }

type t = {
  config : config;
  obs : Obs.ctx;
  clock : Clock.t;
  engine : Engine.t;
  listener : Unix.file_descr;
  queue : conn Admission.t;
  stopping : bool Atomic.t;
  access_log : Access_log.t option;
      (* owned by the caller: the server never closes it *)
  slo : Slo.t;
  req_gen : Request_ctx.gen;
}

let create ?(obs = Obs.null) ?(clock = Clock.wall) ?access_log
    ?(slo_window_s = 60.0) ?(request_seed = 0) config engine =
  let config = { config with jobs = max 1 config.jobs } in
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener addr;
     Unix.listen listener 128
   with exn ->
     Unix.close listener;
     raise exn);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Obs.count obs ~labels:[ ("class", "shed") ] "server.outcome" 0;
  Obs.count obs "server.connection.errors" 0;
  Obs.set_build_info obs ~store_version:Csdl.Synopsis_store.version
    ~git:
      (Option.value ~default:"unknown" (Sys.getenv_opt "REPRO_GIT_DESCRIBE"));
  {
    config;
    obs;
    clock;
    engine;
    listener;
    queue = Admission.create ~obs ~policy:config.queue_policy
        ~capacity:config.queue_capacity ();
    stopping = Atomic.make false;
    access_log;
    slo = Slo.create ~now:clock ~window_s:slo_window_s ();
    req_gen =
      Request_ctx.generator ~seed:request_seed
        (Printf.sprintf "server/%s:%d" config.host bound_port);
  }

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

let stop t = Atomic.set t.stopping true

let slo_snapshot t = Slo.snapshot t.slo

let log_record t r =
  match t.access_log with Some l -> Access_log.write l r | None -> ()

let fresh_id t = (Request_ctx.fresh t.req_gen).Request_ctx.id

(* Best-effort write + close for connections we are turning away; a dead
   peer must not take the accept loop down with it. A shed connection's
   queries are never read, so the record has no verb-level detail — but
   it still gets a server-assigned ID, echoed in the shed line, so the
   access log accounts for every connection the outcome counters do. *)
let shed_and_close t conn =
  Obs.count t.obs "server.requests.total" 1;
  Obs.count t.obs ~labels:[ ("class", "shed") ] "server.outcome" 1;
  let rid = fresh_id t in
  Slo.record t.slo ~cls:"shed" ~wall_s:Float.nan;
  log_record t
    {
      Access_log.id = rid;
      verb = "shed";
      outcome = "shed";
      key = "";
      budget_s = Float.nan;
      wall_s = t.clock () -. conn.accepted_at;
      cache = "";
      shards = 0;
      rung = 0;
      estimate = Float.nan;
    };
  (try
     let line =
       Protocol.shed_line ~id:rid ~retry_after_s:t.config.retry_after_s ()
     in
     let bytes = Bytes.of_string (line ^ "\n") in
     ignore (Unix.write conn.fd bytes 0 (Bytes.length bytes))
   with _ -> ());
  try Unix.close conn.fd with _ -> ()

let verb_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [] -> ""
  | w :: _ -> w

let handle_request t ~conn ~first oc line =
  let start = t.clock () in
  (* one access-log record and one SLO sample per request, whatever the
     verb; only the estimate path fills the synopsis columns *)
  let finish ?(key = "") ?(budget_s = Float.nan) ?(cache = "") ?(shards = 0)
      ?(rung = 0) ?(estimate = Float.nan) ~id ~verb ~cls () =
    let wall_s = t.clock () -. start in
    Slo.record t.slo ~cls ~wall_s;
    log_record t
      {
        Access_log.id;
        verb;
        outcome = cls;
        key;
        budget_s;
        wall_s;
        cache;
        shards;
        rung;
        estimate;
      }
  in
  match Protocol.parse_request line with
  | Error e ->
      output_string oc (Protocol.err_line e ^ "\n");
      finish ~id:(fresh_id t) ~verb:(verb_of_line line) ~cls:"err" ()
  | Ok Protocol.Quit ->
      output_string oc "ok bye\n";
      finish ~id:(fresh_id t) ~verb:"quit" ~cls:"answered" ();
      raise Exit
  | Ok Protocol.Health ->
      output_string oc "ok serving\n";
      finish ~id:(fresh_id t) ~verb:"health" ~cls:"answered" ()
  | Ok Protocol.Ready ->
      output_string oc
        (Printf.sprintf "ok ready keys=%d\n"
           (List.length (Engine.keys t.engine)));
      finish ~id:(fresh_id t) ~verb:"ready" ~cls:"answered" ()
  | Ok Protocol.Keys ->
      output_string oc
        ("ok " ^ String.concat " " (Engine.keys t.engine) ^ "\n");
      finish ~id:(fresh_id t) ~verb:"keys" ~cls:"answered" ()
  | Ok Protocol.Reload -> (
      match Engine.reload t.engine with
      | Ok n ->
          output_string oc (Printf.sprintf "ok reloaded keys=%d\n" n);
          finish ~id:(fresh_id t) ~verb:"reload" ~cls:"answered" ()
      | Error fault ->
          output_string oc
            (Protocol.err_line (Csdl.Fault.error_to_string fault) ^ "\n");
          finish ~id:(fresh_id t) ~verb:"reload" ~cls:"err" ())
  | Ok Protocol.Slo ->
      let snap = Slo.snapshot t.slo in
      (* worst sentinel worsening factor vs build-time baseline across
         keys; 1.0 = accuracy as built, 0 = no sentinels *)
      let drift =
        List.fold_left
          (fun acc d -> Float.max acc d.Engine.d_worsened)
          0.0
          (Engine.drift_status t.engine)
      in
      output_string oc
        (Printf.sprintf "ok %s drift=%.3g\n" (Slo.line snap) drift);
      finish ~id:(fresh_id t) ~verb:"slo" ~cls:"answered" ()
  | Ok Protocol.Metrics ->
      Obs.record_runtime ~domains:(t.config.jobs + 1) t.obs;
      Slo.set_gauges t.slo t.obs;
      let body = Option.value ~default:"" (Obs.prometheus t.obs) in
      output_string oc (Printf.sprintf "ok %d\n" (String.length body));
      output_string oc body;
      finish ~id:(fresh_id t) ~verb:"metrics" ~cls:"answered" ()
  | Ok (Protocol.Estimate { key; id; deadline_s; pred_a; pred_b }) -> (
      let rid = match id with Some v -> v | None -> fresh_id t in
      let budget_s =
        Option.value ~default:t.config.default_deadline_s deadline_s
      in
      let deadline =
        if first then
          Deadline.anchored ~clock:t.clock ~start:conn.accepted_at ~budget_s ()
        else Deadline.make ~clock:t.clock ~budget_s ()
      in
      (* one read of the engine's snapshot: a reload that drops the key
         mid-request makes it unknown, as if it never was *)
      match
        Engine.handle_traced t.engine ~deadline ~key ~rid ?pred_a ?pred_b ()
      with
      | None ->
          output_string oc
            (Protocol.err_line ~id:rid ("unknown key " ^ key) ^ "\n");
          finish ~id:rid ~verb:"estimate" ~cls:"err" ~key ()
      | Some (outcome, detail) ->
          output_string oc (Protocol.render_outcome ~id:rid outcome ^ "\n");
          let estimate =
            match outcome with
            | Engine.Answered v -> v
            | Engine.Degraded { value; _ } -> value
            | Engine.Deadline_exceeded _ | Engine.Rejected _ -> Float.nan
          in
          let rung =
            match outcome with
            | Engine.Degraded { trace; _ } -> List.length trace
            | _ -> 0
          in
          finish ~id:rid ~verb:"estimate" ~cls:(Engine.outcome_class outcome)
            ~key ~budget_s
            ~cache:(if detail.Engine.cache_hit then "hit" else "miss")
            ~shards:detail.Engine.shards ~rung ~estimate ())

let handle_conn t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  let oc = Unix.out_channel_of_descr conn.fd in
  let first = ref true in
  (* whatever escapes the loop, the peer gets what was written and its
     connection closed; closing the out channel closes the underlying fd,
     _noerr because the peer may already be gone *)
  Fun.protect
    ~finally:(fun () ->
      (try flush oc with _ -> ());
      close_out_noerr oc)
  @@ fun () ->
  try
    let rec loop () =
      let line = input_line ic in
      handle_request t ~conn ~first:!first oc line;
      first := false;
      flush oc;
      loop ()
    in
    loop ()
  with
  | End_of_file | Exit -> ()
  | Unix.Unix_error _ | Sys_error _ | Sys_blocked_io ->
      Obs.count t.obs "server.connection.errors" 1

let worker_loop t () =
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some conn ->
        (try handle_conn t conn
         with _ -> Obs.count t.obs "server.connection.errors" 1);
        loop ()
  in
  loop ()

let serve t =
  let workers =
    List.init t.config.jobs (fun _ -> Domain.spawn (worker_loop t))
  in
  let rec accept_loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.listener ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listener with
          | exception Unix.Unix_error _ -> ()
          | fd, _peer -> (
              (try
                 Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.io_timeout_s;
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.io_timeout_s
               with Unix.Unix_error _ -> ());
              let conn = { fd; accepted_at = t.clock () } in
              match Admission.offer t.queue conn with
              | Admission.Admitted -> ()
              | Admission.Rejected | Admission.Closed -> shed_and_close t conn
              | Admission.Displaced oldest -> shed_and_close t oldest))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Admission.close t.queue;
  List.iter Domain.join workers
