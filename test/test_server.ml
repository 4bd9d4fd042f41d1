(* Tests for the hardened estimation server: deadlines, backoff, circuit
   breaker, single-flight, the admission queue, the wire protocol, the
   engine's degradation ladder, and one live socket round trip. Timing
   never relies on the wall clock — the shared fake clock drives every
   deadline and cooldown. *)

open Repro_relation
module Clock = Repro_util.Clock
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs
module Metrics = Repro_obs.Metrics
module Deadline = Repro_server.Deadline
module Backoff = Repro_server.Backoff
module Breaker = Repro_server.Breaker
module Single_flight = Repro_server.Single_flight
module Admission = Repro_server.Admission
module Protocol = Repro_server.Protocol
module Engine = Repro_server.Engine
module Server = Repro_server.Server
module Client = Repro_server.Client

let contains hay needle = Csdl.Fault.contains_substring hay needle

(* ---------------- fixture: tables + a saved store ---------------- *)

let schema = Schema.make [ ("k", Schema.T_int); ("attr", Schema.T_int) ]

let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) -> List.init m (fun i -> [| Value.Int v; Value.Int i |]))
       counts)

let tables =
  lazy
    (let a = table_of_counts [ (1, 12); (2, 7); (3, 20) ] in
     let b = table_of_counts [ (1, 5); (2, 16); (3, 4) ] in
     let fk = table_of_counts [ (1, 3); (2, 2); (3, 4) ] in
     let pk = table_of_counts (List.init 10 (fun i -> (i, 1))) in
     (* a low-jvd pair: 4,000 rows over 3 keys against 3 rows *)
     let big = table_of_counts [ (1, 1334); (2, 1333); (3, 1333) ] in
     let tiny = table_of_counts [ (1, 1); (2, 1); (3, 1) ] in
     [
       ("a", a); ("b", b); ("fk", fk); ("pk", pk); ("big", big); ("tiny", tiny);
     ])

let resolve_table name = List.assoc name (Lazy.force tables)

let saved_store_path () =
  let store = Csdl.Store.create () in
  let register key ta tb spec =
    let profile =
      Csdl.Profile.of_tables (resolve_table ta) "k" (resolve_table tb) "k"
    in
    let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis
  in
  register "a-b" "a" "b" (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
  register "pk-fk" "pk" "fk" Csdl.Spec.cs2l;
  let path = Filename.temp_file "repro-server" ".synopses" in
  Csdl.Store.save store path;
  (store, path)

let with_store f =
  let store, path = saved_store_path () in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f store path)

let engine_exn ?obs ?clock ?sleep config path =
  match Engine.create ?obs ?clock ?sleep config ~resolve_table ~store_path:path with
  | Ok e -> e
  | Error fault -> Alcotest.failf "engine: %s" (Csdl.Fault.error_to_string fault)

(* ---------------- deadline ---------------- *)

let test_deadline_basic () =
  let shared = Clock.shared_counter ~start:10.0 () in
  let clock = Clock.shared_clock shared in
  let d = Deadline.make ~clock ~budget_s:2.0 () in
  Alcotest.(check (float 1e-9)) "budget" 2.0 (Deadline.budget_s d);
  Alcotest.(check (float 1e-9)) "full budget remains" 2.0 (Deadline.remaining d);
  Alcotest.(check bool) "not exceeded" false (Deadline.exceeded d);
  Clock.advance shared 1.5;
  Alcotest.(check (float 1e-9)) "half spent" 0.5 (Deadline.remaining d);
  Clock.advance shared 1.0;
  Alcotest.(check bool) "exceeded" true (Deadline.exceeded d);
  Alcotest.(check (float 1e-9)) "clamped at zero" 0.0 (Deadline.remaining d);
  match Deadline.fault ~what:"request" d with
  | Csdl.Fault.Timeout { what; budget_s } ->
      Alcotest.(check string) "fault names the stage" "request" what;
      Alcotest.(check (float 1e-9)) "fault carries the budget" 2.0 budget_s
  | f -> Alcotest.failf "expected Timeout, got %s" (Csdl.Fault.error_to_string f)

let test_deadline_anchored () =
  let shared = Clock.shared_counter ~start:5.0 () in
  let clock = Clock.shared_clock shared in
  (* anchored in the past: queue wait already burned the budget *)
  let d = Deadline.anchored ~clock ~start:3.0 ~budget_s:1.0 () in
  Alcotest.(check bool) "already exceeded" true (Deadline.exceeded d);
  let d2 = Deadline.anchored ~clock ~start:4.5 ~budget_s:1.0 () in
  Alcotest.(check (float 1e-9)) "partial budget left" 0.5 (Deadline.remaining d2)

let test_deadline_rejects_bad_budget () =
  List.iter
    (fun bad ->
      match Deadline.make ~budget_s:bad () with
      | _ -> Alcotest.failf "budget %f accepted" bad
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.nan; Float.infinity ]

(* ---------------- backoff ---------------- *)

let test_backoff_delay_bounded () =
  let prng = Prng.create 3 in
  let policy = { Backoff.attempts = 5; base_s = 0.01; multiplier = 2.0; max_delay_s = 0.05 } in
  for attempt = 0 to 9 do
    let d = Backoff.delay policy prng ~attempt in
    let cap = Float.min (0.01 *. (2.0 ** float_of_int attempt)) 0.05 in
    if d < 0.0 || d > cap then
      Alcotest.failf "attempt %d: delay %f outside [0, %f]" attempt d cap
  done

let test_backoff_retry_counts () =
  let policy = { Backoff.default with attempts = 4 } in
  let calls = ref 0 in
  let ok_first () = incr calls; Ok !calls in
  let r, attempts = Backoff.retry ~sleep:Clock.no_sleep policy (Prng.create 1) ok_first in
  Alcotest.(check bool) "first try succeeds" true (r = Ok 1);
  Alcotest.(check int) "one attempt" 1 attempts;
  let calls = ref 0 in
  let always_fail () = incr calls; Error "nope" in
  let r, attempts =
    Backoff.retry ~sleep:Clock.no_sleep policy (Prng.create 1) always_fail
  in
  Alcotest.(check bool) "exhausted" true (r = Error "nope");
  Alcotest.(check int) "all attempts used" 4 attempts;
  Alcotest.(check int) "f called per attempt" 4 !calls

let test_backoff_deadline_stops_retries () =
  let shared = Clock.shared_counter () in
  let clock = Clock.shared_clock shared in
  let deadline = Deadline.make ~clock ~budget_s:0.5 () in
  (* the sleeper burns more than the whole budget: after the first failed
     attempt there must be no second one *)
  let sleep d = Clock.advance shared (Float.max d 1.0) in
  let calls = ref 0 in
  let policy = { Backoff.default with attempts = 5 } in
  let r, attempts =
    Backoff.retry ~sleep ~deadline policy (Prng.create 1) (fun () ->
        incr calls;
        Error "nope")
  in
  Alcotest.(check bool) "last error surfaces" true (r = Error "nope");
  Alcotest.(check int) "stopped once the sleep crossed the deadline" 1 attempts;
  Alcotest.(check int) "f not called past the deadline" 1 !calls;
  (* already expired on entry: the mandatory first attempt still runs *)
  Clock.advance shared 10.0;
  let calls = ref 0 in
  let _, attempts =
    Backoff.retry ~sleep ~deadline policy (Prng.create 1) (fun () ->
        incr calls;
        Error "nope")
  in
  Alcotest.(check int) "single attempt when expired" 1 attempts;
  Alcotest.(check int) "one call" 1 !calls

let test_backoff_stops_on_non_retryable () =
  let calls = ref 0 in
  let r, attempts =
    Backoff.retry ~sleep:Clock.no_sleep
      ~retryable:(fun e -> e <> "permanent")
      { Backoff.default with attempts = 5 }
      (Prng.create 1)
      (fun () ->
        incr calls;
        Error (if !calls < 2 then "transient" else "permanent"))
  in
  Alcotest.(check bool) "permanent error surfaces" true (r = Error "permanent");
  Alcotest.(check int) "retried the transient, not the permanent" 2 attempts;
  Alcotest.(check int) "f called per attempt" 2 !calls

(* ---------------- breaker ---------------- *)

let test_breaker_trips_and_recovers () =
  let shared = Clock.shared_counter () in
  let clock = Clock.shared_clock shared in
  let b = Breaker.create ~clock { Breaker.threshold = 3; cooldown_s = 2.0 } in
  Alcotest.(check bool) "fresh key proceeds" true (Breaker.acquire b "k" = `Proceed);
  Breaker.failure b "k";
  Breaker.failure b "k";
  Alcotest.(check bool) "still closed below threshold" true
    (Breaker.state b "k" = `Closed 2);
  Breaker.failure b "k";
  Alcotest.(check bool) "tripped at threshold" true (Breaker.state b "k" = `Open);
  (match Breaker.acquire b "k" with
  | `Open remaining ->
      Alcotest.(check (float 1e-9)) "cooldown remaining" 2.0 remaining
  | `Proceed -> Alcotest.fail "open breaker must refuse");
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  (* other keys unaffected *)
  Alcotest.(check bool) "independent key" true (Breaker.acquire b "other" = `Proceed);
  Clock.advance shared 2.5;
  Alcotest.(check bool) "half-open probe allowed" true
    (Breaker.acquire b "k" = `Proceed);
  (match Breaker.acquire b "k" with
  | `Open _ -> ()
  | `Proceed -> Alcotest.fail "only one probe at a time");
  Breaker.failure b "k";
  Alcotest.(check bool) "probe failure re-trips" true (Breaker.state b "k" = `Open);
  Clock.advance shared 2.5;
  Alcotest.(check bool) "second probe" true (Breaker.acquire b "k" = `Proceed);
  Breaker.success b "k";
  Alcotest.(check bool) "probe success closes" true (Breaker.state b "k" = `Closed 0);
  Alcotest.(check int) "two trips total" 2 (Breaker.trips b)

(* ---------------- single flight ---------------- *)

let test_single_flight_dedups () =
  let sf = Single_flight.create () in
  let invocations = Atomic.make 0 in
  let release = Atomic.make false in
  let leader_entered = Atomic.make false in
  let run () =
    Single_flight.run sf "key" (fun () ->
        Atomic.incr invocations;
        Atomic.set leader_entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        42)
  in
  (* make sure the leader holds the flight open before waiters arrive *)
  let leader = Domain.spawn run in
  while not (Atomic.get leader_entered) do
    Domain.cpu_relax ()
  done;
  let waiters = List.init 3 (fun _ -> Domain.spawn run) in
  while Single_flight.shared sf < 3 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  let results = List.map Domain.join (leader :: waiters) in
  Alcotest.(check (list int)) "all callers share the leader's result"
    [ 42; 42; 42; 42 ] results;
  Alcotest.(check int) "the expensive call ran once" 1 (Atomic.get invocations);
  Alcotest.(check int) "three deduplicated calls" 3 (Single_flight.shared sf);
  (* the flight window closed: a new call runs fresh *)
  let v = Single_flight.run sf "key" (fun () -> Atomic.incr invocations; 7) in
  Alcotest.(check int) "next call is a fresh flight" 7 v;
  Alcotest.(check int) "second invocation" 2 (Atomic.get invocations)

exception Flaky

let test_single_flight_propagates_exceptions () =
  let sf = Single_flight.create () in
  (match Single_flight.run sf "key" (fun () -> raise Flaky) with
  | _ -> Alcotest.fail "expected Flaky"
  | exception Flaky -> ());
  (* a failed flight is not cached *)
  Alcotest.(check int) "flight after failure runs" 9
    (Single_flight.run sf "key" (fun () -> 9))

(* ---------------- admission ---------------- *)

let test_admission_reject_policy () =
  let q = Admission.create ~policy:Admission.Reject ~capacity:2 () in
  Alcotest.(check bool) "first admitted" true (Admission.offer q 1 = Admission.Admitted);
  Alcotest.(check bool) "second admitted" true (Admission.offer q 2 = Admission.Admitted);
  Alcotest.(check bool) "third rejected" true (Admission.offer q 3 = Admission.Rejected);
  Alcotest.(check int) "depth" 2 (Admission.depth q);
  Alcotest.(check (option int)) "FIFO take" (Some 1) (Admission.take q);
  Alcotest.(check bool) "room again" true (Admission.offer q 4 = Admission.Admitted)

let test_admission_drop_oldest_policy () =
  let q = Admission.create ~policy:Admission.Drop_oldest ~capacity:2 () in
  ignore (Admission.offer q 1);
  ignore (Admission.offer q 2);
  (match Admission.offer q 3 with
  | Admission.Displaced oldest ->
      Alcotest.(check int) "oldest displaced" 1 oldest
  | _ -> Alcotest.fail "expected Displaced");
  Alcotest.(check (option int)) "queue kept the newer items" (Some 2)
    (Admission.take q);
  Alcotest.(check (option int)) "and the arrival" (Some 3) (Admission.take q)

let test_admission_close_drains () =
  let q = Admission.create ~policy:Admission.Reject ~capacity:4 () in
  ignore (Admission.offer q 1);
  ignore (Admission.offer q 2);
  Admission.close q;
  Alcotest.(check bool) "offer after close" true (Admission.offer q 3 = Admission.Closed);
  Alcotest.(check (option int)) "queued items still served" (Some 1) (Admission.take q);
  Alcotest.(check (option int)) "in order" (Some 2) (Admission.take q);
  Alcotest.(check (option int)) "then the end" None (Admission.take q);
  (* a consumer blocked in take must wake on close *)
  let q2 = Admission.create ~policy:Admission.Reject ~capacity:1 () in
  let d = Domain.spawn (fun () -> Admission.take q2) in
  Admission.close q2;
  Alcotest.(check (option int)) "blocked take woken by close" None (Domain.join d)

(* ---------------- protocol ---------------- *)

let test_protocol_parse_request () =
  (match Protocol.parse_request "estimate k1 deadline=0.25 ;; attr < 3 ;; attr >= 1" with
  | Ok (Protocol.Estimate { key; id; deadline_s; pred_a; pred_b }) ->
      Alcotest.(check string) "key" "k1" key;
      Alcotest.(check (option string)) "no id" None id;
      Alcotest.(check (option (float 1e-9))) "deadline" (Some 0.25) deadline_s;
      Alcotest.(check bool) "left parsed" true (pred_a <> None);
      Alcotest.(check bool) "right parsed" true (pred_b <> None)
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Protocol.parse_request "estimate k1" with
  | Ok (Protocol.Estimate { deadline_s = None; pred_a = None; pred_b = None; _ }) -> ()
  | _ -> Alcotest.fail "bare estimate");
  (* option tokens in either order; ids validated at parse time *)
  (match Protocol.parse_request "estimate k1 id=req-1 deadline=0.5" with
  | Ok (Protocol.Estimate { id = Some "req-1"; deadline_s = Some _; _ }) -> ()
  | _ -> Alcotest.fail "id then deadline");
  (match Protocol.parse_request "estimate k1 deadline=0.5 id=req-1 ;; attr < 3" with
  | Ok (Protocol.Estimate { id = Some "req-1"; pred_a = Some _; _ }) -> ()
  | _ -> Alcotest.fail "deadline then id with predicate");
  (match Protocol.parse_request "estimate k1 ;;  ;; attr = 2" with
  | Ok (Protocol.Estimate { pred_a = None; pred_b = Some _; _ }) -> ()
  | _ -> Alcotest.fail "empty left side means no selection");
  List.iter
    (fun (line, expect) ->
      match (Protocol.parse_request line, expect) with
      | Ok r, Some r' when r = r' -> ()
      | Error _, None -> ()
      | _ -> Alcotest.failf "parse %S surprised" line)
    [
      ("health", Some Protocol.Health);
      ("ready", Some Protocol.Ready);
      ("keys", Some Protocol.Keys);
      ("metrics", Some Protocol.Metrics);
      ("quit", Some Protocol.Quit);
      ("estimate", None);
      ("estimate k deadline=zero", None);
      ("estimate k deadline=-1", None);
      ("estimate k id=", None);
      ("estimate k id=bad!char", None);
      ("frobnicate", None);
      ("estimate k1 ;; attr <", None);
    ];
  (* the verb is a whole word: glued to what follows it, it is no verb *)
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error e when String.starts_with ~prefix:"unknown verb" e -> ()
      | Error e -> Alcotest.failf "parse %S: %s, not an unknown verb" line e
      | Ok _ -> Alcotest.failf "parse %S: accepted" line)
    [ "estimatek1"; "estimate_x ;; a < 1"; "estimates k"; "estimate\tk" ];
  match Protocol.parse_request "estimate" with
  | Error e when String.starts_with ~prefix:"estimate needs a key" e -> ()
  | _ -> Alcotest.fail "a bare verb asks for a key"

(* ---------------- wire-grammar properties ---------------- *)

module G = QCheck.Gen

let grammar_tokens =
  [|
    "estimate"; "estimate "; "estimatek"; "health"; "ready"; "keys";
    "metrics"; "slo"; "reload"; "quit"; "frobnicate"; "k"; "k1"; "a-b";
    "id="; "id=req-1"; "id=bad!char"; "deadline="; "deadline=0.5";
    "deadline=-1"; "deadline=nan"; "deadline=1e308"; ";;"; ";"; " "; "  ";
    "\t"; "attr"; "<"; "<="; "="; "!="; "<>"; ">="; "3"; "-2.5"; "'x'";
    "'a%'"; "'%b%'"; "'"; "("; ")"; "and"; "OR"; "NOT"; "LIKE"; "true";
  |]

(* Lines built from the grammar's own tokens, and arbitrary bytes (NUL
   and non-UTF-8 included) after a well-formed head. *)
let wire_line_gen =
  G.frequency
    [
      ( 3,
        G.map (String.concat "")
          (G.list_size (G.int_range 0 12) (G.oneofa grammar_tokens)) );
      ( 2,
        G.map (fun tail -> "estimate k ;; " ^ tail)
          (G.string_size ~gen:G.char (G.int_range 0 40)) );
      (1, G.string_size ~gen:G.char (G.int_range 0 40));
    ]

let prop_parse_request_total =
  QCheck.Test.make ~count:5000
    ~name:"parse_request never raises, in bounded time"
    (QCheck.make ~print:(Printf.sprintf "%S") wire_line_gen)
    (fun line ->
      let started = Sys.time () in
      match Protocol.parse_request line with
      | Ok _ | Error _ -> Sys.time () -. started < 0.1)

let ident_gen = G.oneofa [| "attr"; "k"; "name"; "production_year" |]

let atom_gen =
  G.oneof
    [
      G.map3
        (fun c op v -> Printf.sprintf "%s %s %d" c op v)
        ident_gen
        (G.oneofa [| "="; "!="; "<>"; "<"; "<="; ">"; ">=" |])
        (G.int_range (-50) 50);
      G.map2
        (fun c s -> Printf.sprintf "%s LIKE '%s%%'" c s)
        ident_gen
        (G.string_size ~gen:(G.char_range 'a' 'z') (G.int_range 0 4));
      G.map2 (fun c f -> Printf.sprintf "%s >= %g" c f) ident_gen
        (G.float_range (-10.0) 10.0);
    ]

let pred_gen =
  G.frequency
    [
      (1, G.return "");
      (1, G.return "  ");
      (3, atom_gen);
      ( 2,
        G.map3
          (fun a conn b -> Printf.sprintf "%s %s (%s)" a conn b)
          atom_gen (G.oneofa [| "AND"; "OR" |]) atom_gen );
      (1, G.map (fun a -> "NOT " ^ a) atom_gen);
    ]

let request_gen =
  let open G in
  let* key =
    string_size ~gen:(oneofa [| 'a'; 'z'; '0'; '9'; '-'; '_'; '.' |])
      (int_range 1 12)
  in
  let* id =
    opt
      (string_size ~gen:(oneofa [| 'r'; 'q'; '0'; '7'; '-'; '_' |])
         (int_range 1 16))
  in
  (* thousandths print exactly under the renderer's %g *)
  let* deadline_s =
    opt (map (fun k -> float_of_int (k + 1) /. 1000.0) (int_bound 999_998))
  in
  let* preds = opt (pair pred_gen pred_gen) in
  return (key, id, deadline_s, preds)

let expected_pred s =
  match String.trim s with
  | "" -> None
  | s -> Some (Predicate_parser.parse_exn s)

let prop_render_parse_roundtrip =
  QCheck.Test.make ~count:3000
    ~name:"render_estimate then parse_request gives the request back"
    (QCheck.make
       ~print:(fun (key, id, d, preds) ->
         Protocol.render_estimate ~key ?id ?deadline_s:d
           ?pred_a:(Option.map fst preds) ?pred_b:(Option.map snd preds) ())
       request_gen)
    (fun (key, id, deadline_s, preds) ->
      let pred_a = Option.map fst preds and pred_b = Option.map snd preds in
      let line =
        Protocol.render_estimate ~key ?id ?deadline_s ?pred_a ?pred_b ()
      in
      match Protocol.parse_request line with
      | Ok (Protocol.Estimate r) ->
          r.key = key && r.id = id && r.deadline_s = deadline_s
          && r.pred_a = Option.bind pred_a expected_pred
          && r.pred_b = Option.bind pred_b expected_pred
      | Ok _ | Error _ -> false)

let test_protocol_reply_roundtrip () =
  let check_line line expect_class =
    match Protocol.parse_reply line with
    | Ok r -> Alcotest.(check string) line expect_class (Protocol.reply_class r)
    | Error e -> Alcotest.failf "parse_reply %S: %s" line e
  in
  check_line (Protocol.render_outcome (Engine.Answered 1234.5)) "answered";
  check_line
    (Protocol.render_outcome
       (Engine.Degraded
          {
            value = 10.0;
            trace =
              [
                {
                  Csdl.Fault.rung = "synopsis load";
                  fault = Csdl.Fault.Store_mismatch { what = "checksum"; detail = "d" };
                };
              ];
          }))
    "degraded";
  check_line
    (Protocol.render_outcome
       (Engine.Deadline_exceeded
          (Csdl.Fault.Timeout { what = "request"; budget_s = 0.5 })))
    "deadline_exceeded";
  check_line (Protocol.shed_line ~retry_after_s:0.05 ()) "shed";
  check_line (Protocol.err_line "unknown key\nwith newline") "err";
  (* the answered value must round-trip bit-exactly through the line *)
  let v = 578.09792186905838 in
  (match Protocol.parse_reply (Protocol.render_outcome (Engine.Answered v)) with
  | Ok (Protocol.R_ok v') ->
      Alcotest.(check bool) "bit-exact float round trip" true (v = v')
  | _ -> Alcotest.fail "expected R_ok");
  (* replies without an id keep their historical bytes *)
  Alcotest.(check string)
    "no-id ok line unchanged" "ok 1234.5"
    (Protocol.render_outcome (Engine.Answered 1234.5))

let test_protocol_reply_id_roundtrip () =
  (* every reply shape echoes the id byte-exactly, and parse_reply_id
     recovers it *)
  let outcomes =
    [
      Protocol.render_outcome ~id:"rq.1" (Engine.Answered 1234.5);
      Protocol.render_outcome ~id:"rq.1"
        (Engine.Degraded { value = 10.0; trace = [] });
      Protocol.render_outcome ~id:"rq.1"
        (Engine.Deadline_exceeded
           (Csdl.Fault.Timeout { what = "request"; budget_s = 0.5 }));
      Protocol.shed_line ~id:"rq.1" ~retry_after_s:0.05 ();
      Protocol.err_line ~id:"rq.1" "unknown key nope";
    ]
  in
  List.iter
    (fun line ->
      match Protocol.parse_reply_id line with
      | Ok (id, _) -> Alcotest.(check (option string)) line (Some "rq.1") id
      | Error e -> Alcotest.failf "parse_reply_id %S: %s" line e)
    outcomes;
  (* id sits right after the status word *)
  Alcotest.(check string)
    "ok line bytes" "ok id=rq.1 1234.5" (List.nth outcomes 0);
  (* values survive id stripping bit-exactly *)
  let v = 578.09792186905838 in
  (match
     Protocol.parse_reply_id (Protocol.render_outcome ~id:"x" (Engine.Answered v))
   with
  | Ok (Some "x", Protocol.R_ok v') ->
      Alcotest.(check bool) "bit-exact with id" true (v = v')
  | _ -> Alcotest.fail "expected (Some x, R_ok)");
  (* request render/parse round trip with an id *)
  match
    Protocol.parse_request
      (Protocol.render_estimate ~key:"k1" ~id:"rq.1" ~deadline_s:0.5
         ~pred_a:"attr < 3" ())
  with
  | Ok (Protocol.Estimate { key = "k1"; id = Some "rq.1"; _ }) -> ()
  | _ -> Alcotest.fail "request id round trip"

let test_request_ctx () =
  let module Ctx = Repro_obs.Request_ctx in
  Alcotest.(check bool) "valid" true (Ctx.is_valid_id "a-B.9_c:0");
  Alcotest.(check bool) "empty invalid" false (Ctx.is_valid_id "");
  Alcotest.(check bool) "space invalid" false (Ctx.is_valid_id "a b");
  Alcotest.(check bool) "newline invalid" false (Ctx.is_valid_id "a\nb");
  Alcotest.(check bool) "64 ok" true (Ctx.is_valid_id (String.make 64 'x'));
  Alcotest.(check bool) "65 too long" false
    (Ctx.is_valid_id (String.make 65 'x'));
  (* deterministic per (seed, scope); distinct scopes diverge *)
  let ids gen = List.init 5 (fun _ -> Ctx.next gen) in
  let a = ids (Ctx.generator ~seed:7 "server/h:1") in
  let a' = ids (Ctx.generator ~seed:7 "server/h:1") in
  let b = ids (Ctx.generator ~seed:7 "server/h:2") in
  Alcotest.(check (list string)) "replayable" a a';
  Alcotest.(check bool) "scoped streams differ" true (a <> b);
  List.iter
    (fun id -> Alcotest.(check bool) id true (Ctx.is_valid_id id))
    a;
  Alcotest.(check bool) "distinct in-stream" true
    (List.length (List.sort_uniq compare a) = 5);
  (match Ctx.of_client "ok-id" with
  | Some { Ctx.id = "ok-id"; client_supplied = true } -> ()
  | _ -> Alcotest.fail "of_client valid");
  match Ctx.of_client "bad id" with
  | None -> ()
  | Some _ -> Alcotest.fail "of_client invalid"

(* ---------------- engine ---------------- *)

let far_deadline clock = Deadline.make ~clock ~budget_s:1e6 ()

let test_engine_answers_match_batch_path () =
  with_store (fun store path ->
      let engine = engine_exn Engine.default_config path in
      let clock = Clock.wall in
      List.iter
        (fun key ->
          let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
          let want = Csdl.Store.estimate store ~key ~pred_a:pred in
          match
            Engine.handle engine ~deadline:(far_deadline clock) ~key
              ~pred_a:pred ()
          with
          | Engine.Answered got ->
              if got <> want then
                Alcotest.failf "%s: server %h vs batch %h" key got want
          | o -> Alcotest.failf "%s: expected Answered, got %s" key (Engine.outcome_class o))
        (Csdl.Store.keys store);
      (* orientation: an impossible predicate on the user-facing A side of
         the swapped pk-fk entry must zero the estimate, as in batch *)
      match
        Engine.handle engine ~deadline:(far_deadline clock) ~key:"pk-fk"
          ~pred_a:Predicate.False ()
      with
      | Engine.Answered v -> Alcotest.(check (float 0.0)) "swapped zero" 0.0 v
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

let test_engine_unknown_key () =
  with_store (fun _ path ->
      let engine = engine_exn Engine.default_config path in
      let traced key =
        Engine.handle_traced engine ~deadline:(far_deadline Clock.wall) ~key ()
      in
      Alcotest.(check bool) "known key answers" true
        (Option.is_some (traced "a-b"));
      Alcotest.(check bool) "unknown key is None" true
        (Option.is_none (traced "nope"));
      Alcotest.check_raises "unknown key" Not_found (fun () ->
          ignore
            (Engine.handle engine ~deadline:(far_deadline Clock.wall)
               ~key:"nope" ())))

(* A predicate on a column the table lacks is the client's mistake, on
   either side: batch refuses it with a bad-input failure, and the daemon
   replies err (class err, counted as such) instead of answering the
   per-key prior as if the synopsis were at fault. *)
let test_engine_unknown_column_is_err () =
  with_store (fun store path ->
      let obs = Obs.create () in
      let engine = engine_exn ~obs Engine.default_config path in
      let nope = Predicate.Compare (Predicate.Lt, "nope", Value.Int 3) in
      let want = "bad input: Predicate: no column named \"nope\"" in
      List.iter
        (fun (side, pred_a, pred_b) ->
          Alcotest.check_raises ("batch, " ^ side) (Failure want) (fun () ->
              ignore (Csdl.Store.estimate store ~key:"a-b" ?pred_a ?pred_b));
          let outcome =
            Engine.handle engine ~deadline:(far_deadline Clock.wall)
              ~key:"a-b" ?pred_a ?pred_b ()
          in
          Alcotest.(check string) ("class, " ^ side) "err"
            (Engine.outcome_class outcome);
          Alcotest.(check string) ("reply, " ^ side) ("err id=r1 " ^ want)
            (Protocol.render_outcome ~id:"r1" outcome))
        [ ("left", Some nope, None); ("right", None, Some nope) ];
      match Obs.registry obs with
      | None -> Alcotest.fail "live obs expected"
      | Some registry ->
          let counter ?labels name =
            Metrics.Counter.value (Metrics.Registry.counter registry ?labels name)
          in
          Alcotest.(check int) "counted as err" 2
            (counter ~labels:[ ("class", "err") ] "server.outcome");
          Alcotest.(check int) "none degraded" 0
            (counter ~labels:[ ("class", "degraded") ] "server.outcome"))

let test_engine_deadline_exceeded () =
  with_store (fun _ path ->
      let shared = Clock.shared_counter () in
      let clock = Clock.shared_clock shared in
      let engine = engine_exn ~clock ~sleep:Clock.no_sleep Engine.default_config path in
      let deadline = Deadline.make ~clock ~budget_s:0.5 () in
      Clock.advance shared 1.0;
      match Engine.handle engine ~deadline ~key:"a-b" () with
      | Engine.Deadline_exceeded (Csdl.Fault.Timeout { what; _ }) ->
          Alcotest.(check string) "typed fault" "request" what
      | o -> Alcotest.failf "expected Deadline_exceeded, got %s" (Engine.outcome_class o))

let overwrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_engine_reload () =
  with_store (fun store path ->
      let engine = engine_exn Engine.default_config path in
      Alcotest.(check (list string))
        "initial keys" [ "a-b"; "pk-fk" ] (Engine.keys engine);
      (* rewrite the store at the same path with a different key set and
         swap it in *)
      Csdl.Store.remove store "pk-fk";
      let profile =
        Csdl.Profile.of_tables (resolve_table "b") "k" (resolve_table "a") "k"
      in
      let estimator =
        Csdl.Estimator.prepare
          (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
          ~theta:0.5 profile
      in
      let synopsis = Csdl.Estimator.draw estimator (Prng.create 8) in
      Csdl.Store.add store ~key:"b-a" ~table_a:"b" ~table_b:"a" estimator
        synopsis;
      Csdl.Store.save store path;
      (match Engine.reload engine with
      | Ok n -> Alcotest.(check int) "keys served after reload" 2 n
      | Error e -> Alcotest.failf "reload: %s" (Csdl.Fault.error_to_string e));
      Alcotest.(check (list string))
        "reloaded keys" [ "a-b"; "b-a" ] (Engine.keys engine);
      Alcotest.(check bool) "old key gone" false
        (List.mem "pk-fk" (Engine.keys engine));
      let want = Csdl.Store.estimate store ~key:"b-a" in
      (match
         Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"b-a" ()
       with
      | Engine.Answered got ->
          if got <> want then Alcotest.failf "reloaded: %h vs batch %h" got want
      | o ->
          Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o));
      (* a torn store must fail the reload and leave the previous snapshot
         serving *)
      overwrite path "garbage";
      (match Engine.reload engine with
      | Ok _ -> Alcotest.fail "reload of a torn store must fail"
      | Error (Csdl.Fault.Store_mismatch _) -> ()
      | Error e ->
          Alcotest.failf "expected Store_mismatch, got %s"
            (Csdl.Fault.error_to_string e));
      Alcotest.(check (list string))
        "snapshot survives failed reload" [ "a-b"; "b-a" ] (Engine.keys engine);
      match
        Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"b-a" ()
      with
      | Engine.Answered got ->
          if got <> want then
            Alcotest.failf "after failed reload: %h vs batch %h" got want
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

let test_engine_degrades_and_breaker_trips () =
  with_store (fun store path ->
      let shared = Clock.shared_counter () in
      let clock = Clock.shared_clock shared in
      let obs = Obs.create () in
      let config =
        {
          Engine.default_config with
          cache_capacity = 1;
          breaker = { Breaker.threshold = 2; cooldown_s = 5.0 };
        }
      in
      let engine = engine_exn ~obs ~clock ~sleep:Clock.no_sleep config path in
      (* capacity 1: only the last-warmed key is cached; "a-b" must load
         from disk — which now serves garbage *)
      overwrite path "not a synopsis store";
      let deadline () = Deadline.make ~clock ~budget_s:1e6 () in
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" () with
      | Engine.Degraded { value; trace } ->
          let profile =
            Csdl.Profile.of_tables (resolve_table "a") "k" (resolve_table "b") "k"
          in
          let prior = Csdl.Estimator.independence_prior profile () in
          Alcotest.(check (float 1e-9)) "prior value" prior value;
          (match trace with
          | [ { Csdl.Fault.rung = "synopsis load"; fault = Csdl.Fault.Store_mismatch _ } ] -> ()
          | t -> Alcotest.failf "unexpected trace: %s" (Csdl.Fault.trace_to_string t))
      | o -> Alcotest.failf "expected Degraded, got %s" (Engine.outcome_class o));
      Alcotest.(check bool) "one failed load sequence: still closed" true
        (Engine.breaker_state engine "a-b" = `Closed 1);
      ignore (Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" ());
      Alcotest.(check bool) "breaker open after threshold" true
        (Engine.breaker_state engine "a-b" = `Open);
      (* open breaker: degrade immediately, with the breaker in the trace *)
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" () with
      | Engine.Degraded { trace; _ } ->
          Alcotest.(check bool) "trace names the breaker" true
            (contains (Csdl.Fault.trace_to_string trace) "circuit breaker")
      | o -> Alcotest.failf "expected Degraded, got %s" (Engine.outcome_class o));
      (* the cached key keeps answering bit-identically through all of it *)
      let want = Csdl.Store.estimate store ~key:"pk-fk" in
      (match Engine.handle engine ~deadline:(deadline ()) ~key:"pk-fk" () with
      | Engine.Answered got ->
          Alcotest.(check bool) "cached key unaffected" true (got = want)
      | o -> Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o));
      (* cooldown over: the probe retries the (still broken) store *)
      Clock.advance shared 10.0;
      ignore (Engine.handle engine ~deadline:(deadline ()) ~key:"a-b" ());
      Alcotest.(check bool) "probe failure re-trips" true
        (Engine.breaker_state engine "a-b" = `Open);
      (* accounting: every outcome class counted, sums to request count *)
      (match Obs.registry obs with
      | None -> Alcotest.fail "live obs expected"
      | Some registry ->
          let counter ?labels name =
            Metrics.Counter.value (Metrics.Registry.counter registry ?labels name)
          in
          let total = counter "server.requests.total" in
          let sum =
            List.fold_left
              (fun acc cls ->
                acc + counter ~labels:[ ("class", cls) ] "server.outcome")
              0
              [ "answered"; "degraded"; "deadline_exceeded" ]
          in
          Alcotest.(check int) "outcomes sum to requests" total sum;
          Alcotest.(check int) "five requests" 5 total))

let test_engine_chaos_is_deterministic () =
  with_store (fun _ path ->
      let outcomes seed =
        let config =
          { Engine.default_config with cache_capacity = 1; chaos = 0.5; seed }
        in
        let engine = engine_exn ~sleep:Clock.no_sleep config path in
        List.init 20 (fun _ ->
            Engine.outcome_class
              (Engine.handle engine ~deadline:(far_deadline Clock.wall)
                 ~key:"a-b" ()))
      in
      Alcotest.(check (list string))
        "same seed, same outcome sequence" (outcomes 5) (outcomes 5);
      let a = outcomes 5 in
      Alcotest.(check bool) "chaos actually degrades something" true
        (List.mem "degraded" a))

(* The store file can be rewritten under a live server (a rebuild or a
   delta) before anyone sends [reload]. A cache miss must then refuse to
   serve the rewritten entry under the old snapshot — whose orientation
   the handler still uses — degrading through the load rung at once, with
   no retries and nothing counted against the breaker; after [reload]
   the key answers from the new store. *)
let test_engine_miss_rejects_stale_snapshot () =
  with_store (fun store path ->
      let obs = Obs.create () in
      let config = { Engine.default_config with cache_capacity = 1 } in
      let engine = engine_exn ~obs ~sleep:Clock.no_sleep config path in
      let loads () =
        match Obs.registry obs with
        | None -> Alcotest.fail "live obs expected"
        | Some registry ->
            Metrics.Counter.value
              (Metrics.Registry.counter registry "server.loads.total")
      in
      let rewrite ?prng_key ?sample_first seed =
        let profile =
          Csdl.Profile.of_tables (resolve_table "a") "k" (resolve_table "b") "k"
        in
        let estimator =
          Csdl.Estimator.prepare ?sample_first
            (Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
            ~theta:0.5 profile
        in
        let synopsis = Csdl.Estimator.draw estimator (Prng.create seed) in
        Csdl.Store.add ?prng_key store ~key:"a-b" ~table_a:"a" ~table_b:"b"
          estimator synopsis;
        Csdl.Store.save store path
      in
      let pred_a = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
      let pred_b = Predicate.Compare (Predicate.Gt, "attr", Value.Int 1) in
      let request () =
        Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key:"a-b"
          ~pred_a ~pred_b ()
      in
      let expect_stale what =
        let before = loads () in
        (match request () with
        | Engine.Degraded
            {
              trace =
                [
                  {
                    Csdl.Fault.rung = "synopsis load";
                    fault = Csdl.Fault.Store_mismatch { what = "snapshot"; _ };
                  };
                ];
              _;
            } ->
            ()
        | Engine.Degraded { trace; _ } ->
            Alcotest.failf "%s: unexpected trace %s" what
              (Csdl.Fault.trace_to_string trace)
        | o ->
            Alcotest.failf "%s: expected Degraded, got %s" what
              (Engine.outcome_class o));
        Alcotest.(check int) (what ^ ": one load, no retries") 1
          (loads () - before);
        Alcotest.(check bool)
          (what ^ ": breaker not charged") true
          (Engine.breaker_state engine "a-b" = `Closed 0)
      in
      (* capacity 1 holds the last-warmed pk-fk, so a-b misses *)
      rewrite ~prng_key:"8:synopsis/a-b" 8;
      expect_stale "another draw";
      (* same tables, variant, theta and PRNG key as the snapshot: only
         the orientation differs, the case that answered silently wrong *)
      rewrite ~sample_first:`B 7;
      Alcotest.(check bool) "fixture: the rewrite flipped orientation" true
        (match Csdl.Store.info store "a-b" with
        | Some i -> i.Csdl.Store.i_swapped
        | None -> false);
      expect_stale "flipped orientation";
      (match Engine.reload engine with
      | Ok n -> Alcotest.(check int) "reloaded keys" 2 n
      | Error e -> Alcotest.failf "reload: %s" (Csdl.Fault.error_to_string e));
      let want = Csdl.Store.estimate store ~key:"a-b" ~pred_a ~pred_b in
      match request () with
      | Engine.Answered got ->
          if got <> want then
            Alcotest.failf "after reload: %h vs new store %h" got want
      | o ->
          Alcotest.failf "expected Answered, got %s" (Engine.outcome_class o))

(* ---------------- drift sentinels ---------------- *)

(* Deterministic accuracy-regression trip: rewrite the stored sentinel
   truths to be wildly wrong (as if the base data drifted under a stale
   synopsis) and check the replay flags every keyed sentinel past the
   limit — and none below a huge limit. *)
let test_engine_drift_sentinels () =
  with_store (fun _ path ->
      (* fresh store: sentinels replayed at create, status populated *)
      let engine = engine_exn Engine.default_config path in
      let status = Engine.drift_status engine in
      Alcotest.(check (list string))
        "one status per key" [ "a-b"; "pk-fk" ]
        (List.map (fun d -> d.Engine.d_key) status);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (d.Engine.d_key ^ " qerror is a finite >= 1") true
            (Float.is_finite d.Engine.d_qerror && d.Engine.d_qerror >= 1.0);
          (* a just-built store replays bit-identically to its recorded
             baselines, so the worsening factor is exactly 1 and a fresh
             store never warns — however hard its sentinels are *)
          Alcotest.(check (float 0.0))
            (d.Engine.d_key ^ " no worsening on a fresh store")
            1.0 d.Engine.d_worsened;
          Alcotest.(check bool)
            (d.Engine.d_key ^ " fresh store does not trip")
            true (d.Engine.d_fault = None))
        status;
      Alcotest.(check bool) "replays feed the rolling window" true
        (Repro_obs.Rolling.Histogram.count (Engine.sentinel_window engine) > 0);
      (* tamper: recorded truths 1000x off *)
      let entries =
        match Csdl.Synopsis_store.read ~resolve_table ~path with
        | Ok entries -> entries
        | Error f -> Alcotest.failf "read: %s" (Csdl.Fault.error_to_string f)
      in
      Alcotest.(check bool) "store carries sentinels" true
        (List.for_all
           (fun (e : Csdl.Synopsis_store.stored) -> e.sentinels <> [])
           entries);
      let tampered =
        List.map
          (fun (e : Csdl.Synopsis_store.stored) ->
            {
              e with
              sentinels =
                List.map
                  (fun (s : Csdl.Sentinel.t) ->
                    { s with truth = (s.truth +. 1.0) *. 1000.0 })
                  e.sentinels;
            })
          entries
      in
      Csdl.Synopsis_store.write ~path tampered;
      let obs = Obs.create () in
      let engine = engine_exn ~obs Engine.default_config path in
      let status = Engine.drift_status engine in
      Alcotest.(check int) "both keys drifted" 2
        (List.length
           (List.filter (fun d -> d.Engine.d_fault <> None) status));
      List.iter
        (fun d ->
          match d.Engine.d_fault with
          | Some (Csdl.Fault.Drift { key; worsened; limit }) ->
              Alcotest.(check string) "fault names the key" d.Engine.d_key key;
              Alcotest.(check bool) "past the limit" true (worsened > limit)
          | Some f ->
              Alcotest.failf "expected Drift, got %s"
                (Csdl.Fault.error_to_string f)
          | None -> Alcotest.fail "expected a drift fault")
        status;
      (match Obs.registry obs with
      | None -> Alcotest.fail "live obs expected"
      | Some registry ->
          Alcotest.(check bool) "trip counter advanced" true
            (Metrics.Counter.value
               (Metrics.Registry.counter registry "server.drift.tripped")
            > 0));
      (* an indulgent limit keeps the same store quiet *)
      let engine =
        engine_exn { Engine.default_config with drift_limit = 1e12 } path
      in
      Alcotest.(check int) "no trips below the limit" 0
        (List.length
           (List.filter
              (fun d -> d.Engine.d_fault <> None)
              (Engine.drift_status engine))))

(* A store whose synopsis answers 0 for a non-empty join (a 0-tuple
   sample on tiny data) scores an infinite q-error at build time. That
   is its honest baseline: replaying it on the fresh store is exactly
   1.0x, not an infinite worsening. *)
let test_engine_zero_tuple_store_does_not_drift () =
  let store = Csdl.Store.create () in
  let profile =
    Csdl.Profile.of_tables (resolve_table "a") "k" (resolve_table "b") "k"
  in
  let estimator = Csdl.Opt.prepare ~theta:1e-4 profile in
  let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
  Alcotest.(check int) "fixture: 0 sample tuples" 0
    (Csdl.Synopsis.size_tuples synopsis);
  Csdl.Store.add store ~key:"a-b" ~table_a:"a" ~table_b:"b" estimator synopsis;
  Alcotest.(check bool) "fixture: an infinite build-time q-error" true
    (List.exists
       (fun (s : Csdl.Sentinel.t) -> s.baseline = Float.infinity)
       (Csdl.Store.sentinels store "a-b"));
  let path = Filename.temp_file "repro-server" ".synopses" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csdl.Store.save store path;
      let engine = engine_exn Engine.default_config path in
      match Engine.drift_status engine with
      | [ d ] ->
          Alcotest.(check (float 0.0)) "replays at exactly 1.0x" 1.0
            d.Engine.d_worsened;
          Alcotest.(check bool) "no drift fault" true (d.Engine.d_fault = None)
      | l -> Alcotest.failf "expected one drift status, got %d" (List.length l))

(* The daemon answers what batch prints where the sampler left the first
   side nothing but sentries: a budget that fits only the sentries (every
   q_v clamped to 0), and a predicate that filters every sampled row but
   the sentries out of an ordinary synopsis. Both used to degrade to the
   per-key prior. *)
let test_engine_answers_sentry_only_as_batch () =
  let check ~what ~key ta tb estimator ~pred_a =
    let store = Csdl.Store.create () in
    let synopsis = Csdl.Estimator.draw estimator (Prng.create 7) in
    Csdl.Store.add store ~key ~table_a:ta ~table_b:tb estimator synopsis;
    let path = Filename.temp_file "repro-server" ".synopses" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Csdl.Store.save store path;
        let engine = engine_exn Engine.default_config path in
        let pred_a = pred_a synopsis in
        let want = Csdl.Store.estimate store ~key ?pred_a in
        match
          Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key ?pred_a ()
        with
        | Engine.Answered got ->
            if Int64.bits_of_float got <> Int64.bits_of_float want then
              Alcotest.failf "%s: server %h vs batch %h" what got want
        | Engine.Degraded { trace; _ } ->
            Alcotest.failf "%s: degraded (%s)" what (Csdl.Fault.trace_to_string trace)
        | o -> Alcotest.failf "%s: got %s" what (Engine.outcome_class o))
  in
  let profile ta tb =
    Csdl.Profile.of_tables (resolve_table ta) "k" (resolve_table tb) "k"
  in
  let low_jvd = Csdl.Opt.prepare ~theta:0.0005 (profile "big" "tiny") in
  let zero_q =
    Csdl.Synopsis_flat.of_synopsis (Csdl.Estimator.draw low_jvd (Prng.create 7))
  in
  Alcotest.(check string) "fixture: CSDL(1,diff)" "CSDL(1,diff)"
    (Csdl.Spec.to_string (Csdl.Estimator.spec low_jvd));
  Alcotest.(check bool) "fixture: every q_v is 0" true
    (Array.for_all (fun q -> q = 0.0) zero_q.Csdl.Synopsis_flat.a.Csdl.Synopsis_flat.q_v);
  List.iter
    (fun pred_a -> check ~what:"q_v = 0" ~key:"big-tiny" "big" "tiny" low_jvd ~pred_a:(fun _ -> pred_a))
    [ None; Some (Predicate.Compare (Predicate.Le, "k", Value.Int 2)) ];
  (* keep exactly the sentry tuple of each first-side value: (k, attr)
     names a row *)
  let sentries_only (synopsis : Csdl.Synopsis.t) =
    let sample = synopsis.Csdl.Synopsis.sample_a in
    Value.Tbl.fold
      (fun _ (e : Csdl.Sample.entry) acc ->
        match e.Csdl.Sample.sentry_row with
        | None -> acc
        | Some r ->
            let row = Table.row sample.Csdl.Sample.table r in
            Predicate.Or
              ( acc,
                Predicate.And
                  ( Predicate.Compare (Predicate.Eq, "k", row.(0)),
                    Predicate.Compare (Predicate.Eq, "attr", row.(1)) ) ))
      sample.Csdl.Sample.entries Predicate.False
    |> Option.some
  in
  let ordinary =
    Csdl.Estimator.prepare ~sample_first:`A
      (Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff)
      ~theta:0.3 (profile "a" "b")
  in
  check ~what:"sentry-only first side" ~key:"a-b" "a" "b" ordinary
    ~pred_a:sentries_only

(* ---------------- the CSV row reader ---------------- *)

(* One store over CSVs in a temp dir — a plain entry, one the estimator
   stores swapped and a self-join on two columns of one CSV, at 4 shards
   — served at cache capacity 1, so every change of key is a miss, by an
   engine on the CSV reader and by one on the default whole-table
   adapter. Both must give every request the same outcome, bit for bit,
   with or without chaos; each degraded value must be the key's prior
   over the whole tables; and a CSV rewritten under both engines must
   fail a miss with the same fingerprint fault. *)
let test_engine_csv_reader_matches_adapter () =
  let dir = Filename.temp_dir "repro-server" "" in
  let csv name = Filename.concat dir (name ^ ".csv") in
  let self =
    Table.of_rows
      (Schema.make [ ("c1", Schema.T_int); ("c2", Schema.T_int); ("attr", Schema.T_int) ])
      (List.init 60 (fun i ->
           [| Value.Int (i mod 7); Value.Int (i mod 4); Value.Int (i mod 9) |]))
  in
  let tables =
    [ ("a", resolve_table "a"); ("b", resolve_table "b"); ("pk", resolve_table "pk");
      ("fk", resolve_table "fk"); ("t", self) ]
  in
  List.iter (fun (name, t) -> Csv_io.write (csv name) t) tables;
  let graphs =
    [
      ("ab", ("a", "k"), ("b", "k"), Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
      ("pkfk", ("pk", "k"), ("fk", "k"), Csdl.Spec.cs2l);
      ("self", ("t", "c1"), ("t", "c2"), Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff);
    ]
  in
  let store = Csdl.Store.create () in
  let priors =
    List.map
      (fun (key, (ta, ca), (tb, cb), spec) ->
        let profile =
          Csdl.Profile.of_tables (List.assoc ta tables) ca (List.assoc tb tables) cb
        in
        let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
        Csdl.Store.add ~shards:4 store ~key ~table_a:(csv ta) ~table_b:(csv tb)
          estimator (Csdl.Estimator.draw estimator (Prng.create 7));
        (key, Csdl.Estimator.independence_prior profile ()))
      graphs
  in
  Alcotest.(check bool) "fixture: pkfk is stored swapped" true
    (match Csdl.Store.info store "pkfk" with
    | Some i -> i.Csdl.Store.i_swapped
    | None -> false);
  let path = Filename.concat dir "s.bin" in
  Csdl.Store.save store path;
  let engines config =
    let create ?read_rows () =
      match
        Engine.create ?read_rows ~sleep:Clock.no_sleep config
          ~resolve_table:Csv_io.read_auto ~store_path:path
      with
      | Ok e -> e
      | Error f -> Alcotest.failf "engine: %s" (Csdl.Fault.error_to_string f)
    in
    (create ~read_rows:Csv_io.read_rows (), create ())
  in
  let attr = Predicate.Compare (Predicate.Lt, "attr", Value.Int 4) in
  let requests =
    List.concat_map
      (fun (key, _, _, _) ->
        [ (key, None, None); (key, Some attr, None); (key, None, Some attr) ])
      graphs
  in
  let serve engine (key, pred_a, pred_b) =
    Engine.handle engine ~deadline:(far_deadline Clock.wall) ~key ?pred_a ?pred_b ()
  in
  let rendered = Protocol.render_outcome in
  let same ~what (csv_engine, adapter_engine) ~check =
    List.iter
      (fun ((key, _, _) as request) ->
        let got = serve csv_engine request in
        let want = serve adapter_engine request in
        if rendered got <> rendered want then
          Alcotest.failf "%s, %s: CSV reader %S, adapter %S" what key
            (rendered got) (rendered want);
        check key got)
      (requests @ requests)
  in
  let prior_check ~what key = function
    | Engine.Degraded { value; _ } ->
        let want = List.assoc key priors in
        if Int64.bits_of_float value <> Int64.bits_of_float want then
          Alcotest.failf "%s, %s: prior %h, whole tables give %h" what key value want
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let config = { Engine.default_config with cache_capacity = 1 } in
      same ~what:"plain" (engines config) ~check:(fun key outcome ->
          match outcome with
          | Engine.Answered _ -> ()
          | o -> Alcotest.failf "plain, %s: %s" key (rendered o));
      (* batch over the same store answers as the CSV-reader engine *)
      let csv_engine, _ = engines config in
      List.iter
        (fun ((key, pred_a, pred_b) as request) ->
          let want = Csdl.Store.estimate store ~key ?pred_a ?pred_b in
          match serve csv_engine request with
          | Engine.Answered got when Int64.bits_of_float got = Int64.bits_of_float want -> ()
          | o -> Alcotest.failf "%s: %s, batch %h" key (rendered o) want)
        requests;
      let degraded = ref 0 in
      same ~what:"chaos"
        (engines { config with chaos = 0.5; seed = 5 })
        ~check:(fun key outcome ->
          (match outcome with Engine.Degraded _ -> incr degraded | _ -> ());
          prior_check ~what:"chaos" key outcome);
      Alcotest.(check bool) "chaos degraded something" true (!degraded > 0);
      (* rewrite one CSV under both engines: the next miss on a key that
         reads it must fail its fingerprint check, on both *)
      let live = engines config in
      List.iter
        (fun e -> ignore (serve e ("self", None, None)))
        [ fst live; snd live ];
      Csv_io.write (csv "b")
        (Table.of_rows (Table.schema (resolve_table "b"))
           [ [| Value.Int 1; Value.Int 0 |] ]);
      let request = ("ab", None, None) in
      let got = serve (fst live) request and want = serve (snd live) request in
      Alcotest.(check string) "same fault on both" (rendered want) (rendered got);
      match got with
      | Engine.Degraded
          {
            trace =
              [
                {
                  Csdl.Fault.rung = "synopsis load";
                  fault = Csdl.Fault.Store_mismatch { what = "fingerprint"; _ };
                };
              ];
            _;
          } ->
          prior_check ~what:"rewritten CSV" "ab" got
      | o -> Alcotest.failf "rewritten CSV: %s" (rendered o))

(* ---------------- server + client over a real socket ---------------- *)

let test_server_socket_roundtrip () =
  with_store (fun store path ->
      let obs = Obs.create () in
      let engine = engine_exn ~obs Engine.default_config path in
      let config =
        { (Server.default_config ~port:0) with jobs = 2; default_deadline_s = 30.0 }
      in
      let srv = Server.create ~obs config engine in
      let port = Server.port srv in
      let domain = Domain.spawn (fun () -> Server.serve srv) in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Domain.join domain)
        (fun () ->
          let c = Client.connect ~host:"127.0.0.1" ~port () in
          Alcotest.(check string) "health" "ok serving" (Client.raw c "health");
          Alcotest.(check string) "ready" "ok ready keys=2" (Client.raw c "ready");
          Alcotest.(check string) "keys" "ok a-b pk-fk" (Client.raw c "keys");
          (let want = Csdl.Store.estimate store ~key:"a-b" in
           match Client.estimate c ~key:"a-b" () with
           | Ok (Protocol.R_ok got) ->
               Alcotest.(check bool) "estimate matches the batch path" true
                 (got = want)
           | r ->
               Alcotest.failf "unexpected reply: %s"
                 (match r with
                 | Ok r -> Protocol.reply_class r
                 | Error e -> e));
          (match Client.estimate c ~key:"a-b" ~pred_a:"attr < 3" () with
          | Ok (Protocol.R_ok got) ->
              let pred = Predicate.Compare (Predicate.Lt, "attr", Value.Int 3) in
              let want = Csdl.Store.estimate store ~key:"a-b" ~pred_a:pred in
              Alcotest.(check bool) "predicate round trip" true (got = want)
          | _ -> Alcotest.fail "expected R_ok");
          (match Client.estimate c ~key:"nope" () with
          | Ok (Protocol.R_err msg) ->
              Alcotest.(check bool) "unknown key errs" true (contains msg "nope")
          | _ -> Alcotest.fail "expected R_err");
          (match Client.estimate c ~key:"a-b" ~deadline_s:1e-9 () with
          | Ok (Protocol.R_deadline_exceeded _) -> ()
          | _ -> Alcotest.fail "expected deadline_exceeded");
          (match Client.metrics c with
          | Ok body ->
              Alcotest.(check bool) "metrics body has server counters" true
                (contains body "server_outcome");
              Alcotest.(check bool) "metrics body has build info" true
                (contains body "repro_build_info");
              Alcotest.(check bool) "metrics body has runtime gauges" true
                (contains body "runtime_gc_heap_words");
              Alcotest.(check bool) "metrics body has slo gauges" true
                (contains body "server_slo_p99_seconds")
          | Error e -> Alcotest.failf "metrics: %s" e);
          (let slo = Client.raw c "slo" in
           Alcotest.(check bool) ("slo reply: " ^ slo) true
             (String.length slo > 10 && String.sub slo 0 10 = "ok window="
             && contains slo "p99=" && contains slo "drift="));
          Alcotest.(check string) "quit" "ok bye" (Client.raw c "quit");
          Client.close c))

(* A reload that drops a key while a request for it is in flight: the
   request gets the reply any unknown key gets, and the connection keeps
   serving. The server's clock runs the reload on the second read of a
   connection's second request, the one [Deadline.make] takes after the
   request line is parsed. *)
let test_server_reload_drops_key_mid_request () =
  with_store (fun store path ->
      let engine = engine_exn Engine.default_config path in
      (* reads left until the reload; 0 when disarmed *)
      let countdown = Atomic.make 0 in
      let clock () =
        if Atomic.get countdown > 0 && Atomic.fetch_and_add countdown (-1) = 1
        then begin
          Csdl.Store.remove store "pk-fk";
          Csdl.Store.save store path;
          match Engine.reload engine with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "reload: %s" (Csdl.Fault.error_to_string e)
        end;
        Clock.wall ()
      in
      let config =
        {
          (Server.default_config ~port:0) with
          jobs = 1;
          default_deadline_s = 30.0;
        }
      in
      let srv = Server.create ~clock config engine in
      let port = Server.port srv in
      let domain = Domain.spawn (fun () -> Server.serve srv) in
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Domain.join domain)
        (fun () ->
          let c = Client.connect ~timeout_s:5.0 ~host:"127.0.0.1" ~port () in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          (match Client.estimate c ~key:"pk-fk" () with
          | Ok (Protocol.R_ok _) -> ()
          | _ -> Alcotest.fail "first request: expected R_ok");
          Atomic.set countdown 2;
          (match Client.estimate c ~key:"pk-fk" () with
          | Ok (Protocol.R_err msg) ->
              Alcotest.(check bool)
                ("unknown key reply: " ^ msg)
                true
                (contains msg "unknown key pk-fk")
          | Ok r ->
              Alcotest.failf "expected R_err, got %s" (Protocol.reply_class r)
          | Error e -> Alcotest.failf "malformed reply: %s" e
          | exception
              ( Unix.Unix_error _ | End_of_file | Sys_error _
              | Sys_blocked_io ) ->
              Alcotest.fail "no reply to a request whose key a reload dropped");
          Alcotest.(check int) "the reload ran" 0 (Atomic.get countdown);
          Alcotest.(check string) "keys after the reload" "ok a-b"
            (Client.raw c "keys");
          let want = Csdl.Store.estimate store ~key:"a-b" in
          match Client.estimate c ~key:"a-b" () with
          | Ok (Protocol.R_ok got) ->
              Alcotest.(check bool) "the connection keeps serving" true
                (got = want)
          | _ -> Alcotest.fail "expected R_ok after the dropped key"))

(* request-ID propagation and the access log, over a live socket *)
let test_server_telemetry_roundtrip () =
  with_store (fun store path ->
      let log_path = Filename.temp_file "repro-access" ".jsonl" in
      let log = Repro_obs.Access_log.create ~path:log_path ~sleep:Clock.sleepf in
      let engine = engine_exn Engine.default_config path in
      let config =
        { (Server.default_config ~port:0) with jobs = 2; default_deadline_s = 30.0 }
      in
      let srv = Server.create ~access_log:log config engine in
      let port = Server.port srv in
      let domain = Domain.spawn (fun () -> Server.serve srv) in
      Fun.protect
        ~finally:(fun () -> Sys.remove log_path)
        (fun () ->
          let c = Client.connect ~host:"127.0.0.1" ~port () in
          let want = Csdl.Store.estimate store ~key:"a-b" in
          (* client-supplied id echoed byte-exactly *)
          (match Client.estimate_full c ~id:"cli-0001" ~key:"a-b" () with
          | Ok (Some "cli-0001", Protocol.R_ok got) ->
              Alcotest.(check bool) "value with id still batch-exact" true
                (got = want)
          | Ok (id, r) ->
              Alcotest.failf "echo: got id %s class %s"
                (Option.value ~default:"<none>" id)
                (Protocol.reply_class r)
          | Error e -> Alcotest.failf "estimate_full: %s" e);
          (* server-assigned id: present, wire-valid, and not ours *)
          let assigned =
            match Client.estimate_full c ~key:"a-b" () with
            | Ok (Some rid, Protocol.R_ok _) ->
                Alcotest.(check bool) "assigned id is wire-valid" true
                  (Repro_obs.Request_ctx.is_valid_id rid);
                rid
            | _ -> Alcotest.fail "expected an assigned id"
          in
          Alcotest.(check bool) "assigned differs from client ids" true
            (assigned <> "cli-0001");
          (* errors echo the id too *)
          (match Client.estimate_full c ~id:"cli-0002" ~key:"nope" () with
          | Ok (Some "cli-0002", Protocol.R_err _) -> ()
          | _ -> Alcotest.fail "err reply must echo the id");
          Client.close c;
          Server.stop srv;
          Domain.join domain;
          Repro_obs.Access_log.close log;
          (* one record per request, joinable by id, zero orphans *)
          match Repro_obs.Access_log.read_file log_path with
          | Error e -> Alcotest.failf "access log: %s" e
          | Ok records ->
              let by_id id =
                List.find_opt
                  (fun (r : Repro_obs.Access_log.record) -> r.id = id)
                  records
              in
              (match by_id "cli-0001" with
              | Some r ->
                  Alcotest.(check string) "verb" "estimate" r.verb;
                  Alcotest.(check string) "outcome" "answered" r.outcome;
                  Alcotest.(check string) "key" "a-b" r.key;
                  Alcotest.(check (float 1e-9)) "budget" 30.0 r.budget_s;
                  Alcotest.(check bool) "estimate logged" true
                    (r.estimate = want);
                  Alcotest.(check bool) "cache column filled" true
                    (r.cache = "hit" || r.cache = "miss");
                  Alcotest.(check bool) "wall time recorded" true
                    (Float.is_finite r.wall_s && r.wall_s >= 0.0)
              | None -> Alcotest.fail "cli-0001 missing from the log");
              (match by_id assigned with
              | Some r ->
                  Alcotest.(check string) "assigned verb" "estimate" r.verb
              | None -> Alcotest.fail "assigned id missing from the log");
              (match by_id "cli-0002" with
              | Some r -> Alcotest.(check string) "err logged" "err" r.outcome
              | None -> Alcotest.fail "cli-0002 missing from the log");
              Alcotest.(check int) "three estimate records" 3
                (List.length
                   (List.filter
                      (fun (r : Repro_obs.Access_log.record) ->
                        r.verb = "estimate")
                      records))))

let () =
  Alcotest.run "repro_server"
    [
      ( "deadline",
        [
          Alcotest.test_case "budget and remaining" `Quick test_deadline_basic;
          Alcotest.test_case "anchored at accept" `Quick test_deadline_anchored;
          Alcotest.test_case "rejects bad budgets" `Quick
            test_deadline_rejects_bad_budget;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "jittered delay bounded" `Quick
            test_backoff_delay_bounded;
          Alcotest.test_case "attempt accounting" `Quick test_backoff_retry_counts;
          Alcotest.test_case "deadline stops retries" `Quick
            test_backoff_deadline_stops_retries;
          Alcotest.test_case "non-retryable error stops retries" `Quick
            test_backoff_stops_on_non_retryable;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips, cools down, recovers" `Quick
            test_breaker_trips_and_recovers;
        ] );
      ( "single flight",
        [
          Alcotest.test_case "concurrent misses dedup" `Quick
            test_single_flight_dedups;
          Alcotest.test_case "exceptions propagate, not cached" `Quick
            test_single_flight_propagates_exceptions;
        ] );
      ( "admission",
        [
          Alcotest.test_case "reject policy" `Quick test_admission_reject_policy;
          Alcotest.test_case "drop-oldest policy" `Quick
            test_admission_drop_oldest_policy;
          Alcotest.test_case "close drains" `Quick test_admission_close_drains;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request grammar" `Quick test_protocol_parse_request;
          QCheck_alcotest.to_alcotest prop_parse_request_total;
          QCheck_alcotest.to_alcotest prop_render_parse_roundtrip;
          Alcotest.test_case "reply round trip" `Quick test_protocol_reply_roundtrip;
          Alcotest.test_case "request ids round trip" `Quick
            test_protocol_reply_id_roundtrip;
          Alcotest.test_case "request-id generator" `Quick test_request_ctx;
        ] );
      ( "engine",
        [
          Alcotest.test_case "answers match the batch path" `Quick
            test_engine_answers_match_batch_path;
          Alcotest.test_case "unknown key" `Quick test_engine_unknown_key;
          Alcotest.test_case "unknown column is err" `Quick
            test_engine_unknown_column_is_err;
          Alcotest.test_case "reload swaps the snapshot" `Quick
            test_engine_reload;
          Alcotest.test_case "deadline exceeded" `Quick
            test_engine_deadline_exceeded;
          Alcotest.test_case "degrades and breaker trips" `Quick
            test_engine_degrades_and_breaker_trips;
          Alcotest.test_case "chaos is deterministic" `Quick
            test_engine_chaos_is_deterministic;
          Alcotest.test_case "drift sentinels trip deterministically" `Quick
            test_engine_drift_sentinels;
          Alcotest.test_case "miss rejects a stale snapshot" `Quick
            test_engine_miss_rejects_stale_snapshot;
          Alcotest.test_case "fresh 0-tuple store does not drift" `Quick
            test_engine_zero_tuple_store_does_not_drift;
          Alcotest.test_case "CSV reader serves as the whole-table adapter"
            `Quick test_engine_csv_reader_matches_adapter;
          Alcotest.test_case "sentry-only first side answers as batch" `Quick
            test_engine_answers_sentry_only_as_batch;
        ] );
      ( "socket",
        [
          Alcotest.test_case "live round trip" `Quick test_server_socket_roundtrip;
          Alcotest.test_case "request telemetry round trip" `Quick
            test_server_telemetry_roundtrip;
          Alcotest.test_case "reload dropping a key mid-request errs" `Quick
            test_server_reload_drops_key_mid_request;
        ] );
    ]
