open Repro_relation
module Clock = Repro_util.Clock
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs
module Cache = Csdl.Synopsis_cache
module Fault = Csdl.Fault
module Fault_injection = Repro_robustness.Fault_injection

type config = {
  cache_capacity : int;
  breaker : Breaker.config;
  backoff : Backoff.policy;
  chaos : float;
  seed : int;
  drift_limit : float;
}

let default_config =
  {
    cache_capacity = 32;
    breaker = Breaker.default_config;
    backoff = Backoff.default;
    chaos = 0.0;
    seed = 1;
    drift_limit = 8.0;
  }

type meta = {
  m_cache_key : Cache.key;
  m_swapped : bool;
  m_prior : float;  (** independence prior, computed once at startup *)
  m_shards : int;
}

type drift = {
  d_key : string;
  d_qerror : float;
  d_worsened : float;
  d_limit : float;
  d_fault : Fault.error option;
}

type t = {
  config : config;
  obs : Obs.ctx;
  clock : Clock.t;
  sleep : Clock.sleeper;
  store_path : string;
  read_rows : Table.row_reader;
  metas : (string, meta) Hashtbl.t Atomic.t;
      (* immutable snapshot, swapped wholesale by [reload]; requests read
         it once at entry, so a swap never disturbs one in flight *)
  cache : Csdl.Synopsis_flat.t Cache.t;
      (* the cache holds flattened synopses: freezing (and structurally
         validating) happens once per load, so the per-request hot path is
         the linear flat-array scans only *)
  cache_mutex : Mutex.t;
  breaker : Breaker.t;
  flights : (Csdl.Synopsis_flat.t, Fault.error) result Single_flight.t;
  reloads : (int, Fault.error) result Single_flight.t;
  load_seq : int Atomic.t;
  drift : drift list Atomic.t;
      (* per-key sentinel verdicts of the latest replay (create or
         reload); swapped wholesale like [metas] *)
  sentinel_window : Repro_obs.Rolling.Histogram.t;
      (* rolling window of every sentinel q-error replayed *)
}

(* |A| * |B| / max(d_A, d_B): the System-R independence prior of
   [Estimator.independence_prior], from the whole tables' counts the
   decode reports (the formula is symmetric, so sampler orientation does
   not matter). *)
let prior_of_served (s : Csdl.Synopsis_store.served) =
  let d = max s.side_a.distinct s.side_b.distinct in
  if d = 0 then 0.0
  else
    float_of_int s.side_a.cardinality
    *. float_of_int s.side_b.cardinality
    /. float_of_int d

let cache_key_of_stored (s : Csdl.Synopsis_store.stored) =
  let resolved = s.synopsis.Csdl.Synopsis.resolved in
  {
    Cache.fp_a = s.fingerprint_a;
    fp_b = s.fingerprint_b;
    variant = Csdl.Spec.to_string resolved.Csdl.Budget.spec;
    theta = resolved.Csdl.Budget.theta;
    prng_key = s.prng_key;
  }

let meta_of_served (s : Csdl.Synopsis_store.served) =
  {
    m_cache_key = cache_key_of_stored s.entry;
    m_swapped = s.entry.swapped;
    m_prior = prior_of_served s;
    m_shards = s.entry.shards;
  }

(* A decoded store as a snapshot: each key's metadata, and each entry's
   flat view, handed to [insert] (the cache) and kept for the sentinel
   replay. *)
let snapshot ~insert entries =
  let metas = Hashtbl.create 16 in
  let flats =
    List.map
      (fun (s : Csdl.Synopsis_store.served) ->
        let meta = meta_of_served s in
        let flat = Csdl.Synopsis_flat.of_synopsis s.entry.synopsis in
        Hashtbl.replace metas s.entry.key meta;
        insert meta flat;
        (s.entry, flat))
      entries
  in
  (metas, flats)

(* A miss must serve the synopsis its snapshot describes. The store file
   can be rewritten under a live server (a rebuild or a delta) and is
   only swapped in by [reload]; until then the handler keeps orienting
   predicates by the snapshot's [m_swapped], so an entry that no longer
   matches the snapshot's fingerprints, variant, theta, PRNG key or
   orientation must not answer. *)
let check_snapshot meta (s : Csdl.Synopsis_store.stored) =
  let k = cache_key_of_stored s and m = meta.m_cache_key in
  if s.swapped = meta.m_swapped && k = m then Ok s
  else
    Error
      (Fault.Store_mismatch
         {
           what = "snapshot";
           detail =
             Printf.sprintf
               "%s was rewritten since the last reload (store: %s theta=%g \
                prng=%S swapped=%b; snapshot: %s theta=%g prng=%S \
                swapped=%b)"
               s.key k.Cache.variant k.Cache.theta k.Cache.prng_key s.swapped
               m.Cache.variant m.Cache.theta m.Cache.prng_key meta.m_swapped;
         })

(* Faults that persist until the next [reload]: retrying the load cannot
   help, and the store itself read fine. *)
let stale_snapshot = function
  | Fault.Store_mismatch { what = "snapshot" | "key"; _ } -> true
  | _ -> false

(* ---------------- drift sentinels ---------------- *)

(* Replay every stored sentinel against the freshly flattened synopsis
   and compare with its recorded truth. Runs at create and reload — the
   two moments the served synopsis can change under a live server — so
   accuracy drift (typically from delta maintenance) is caught before
   the drifted synopsis answers a single client query. The drift signal
   is relative: each sentinel carries the q-error the synopsis scored at
   build time, and only a q-error [drift_limit] times worse trips — a
   legitimately hard sentinel (tiny sample, selective filter) never
   warns on a fresh store. Unparseable sentinels are skipped (a sentinel
   can never take the server down); an estimator fault on a sentinel
   likewise. *)
let replay_sentinels t entries =
  let limit = t.config.drift_limit in
  let drifts =
    List.filter_map
      (fun ((s : Csdl.Synopsis_store.stored), flat) ->
        let worst = ref 0.0 and worsened = ref 0.0 and replayed = ref 0 in
        List.iter
          (fun (sen : Csdl.Sentinel.t) ->
            match Csdl.Sentinel.replay flat ~swapped:s.swapped sen with
            | None -> ()
            | Some q ->
                incr replayed;
                if q > !worst then worst := q;
                let w = Csdl.Sentinel.worsened sen q in
                if w > !worsened then worsened := w;
                Repro_obs.Rolling.Histogram.observe t.sentinel_window q)
          s.sentinels;
        if !replayed = 0 then None
        else begin
          Obs.set_gauge t.obs
            ~labels:[ ("key", s.key) ]
            "server.sentinel.qerror" !worst;
          let tripped = !worsened > limit in
          if tripped then Obs.count t.obs "server.drift.tripped" 1;
          Some
            {
              d_key = s.key;
              d_qerror = !worst;
              d_worsened = !worsened;
              d_limit = limit;
              d_fault =
                (if tripped then
                   Some
                     (Fault.Drift { key = s.key; worsened = !worsened; limit })
                 else None);
            }
        end)
      entries
  in
  Atomic.set t.drift drifts

let drift_status t = Atomic.get t.drift
let sentinel_window t = t.sentinel_window

let create ?(obs = Obs.null) ?(clock = Clock.wall) ?(sleep = Clock.sleepf)
    ?read_rows config ~resolve_table ~store_path =
  let read_rows =
    match read_rows with
    | Some read_rows -> read_rows
    | None -> fun name -> Table.read_rows (resolve_table name)
  in
  let config =
    {
      config with
      cache_capacity = max 1 config.cache_capacity;
      chaos = Float.max 0.0 (Float.min 1.0 config.chaos);
      (* q-error is >= 1 by construction, so a smaller limit would trip
         on every replay *)
      drift_limit = Float.max 1.0 config.drift_limit;
    }
  in
  match Csdl.Synopsis_store.read_served ~read_rows ~path:store_path with
  | Error _ as e -> e
  | Ok entries ->
      let cache = Cache.create ~obs ~capacity:config.cache_capacity () in
      let metas, flats =
        snapshot entries ~insert:(fun meta flat ->
            Cache.insert cache meta.m_cache_key flat)
      in
      Obs.count obs "server.requests.total" 0;
      List.iter
        (fun cls -> Obs.count obs ~labels:[ ("class", cls) ] "server.outcome" 0)
        [ "answered"; "degraded"; "deadline_exceeded"; "err" ];
      List.iter
        (fun mode ->
          Obs.count obs ~labels:[ ("mode", mode) ] "server.chaos.injected" 0)
        [ "fail"; "corrupt" ];
      Obs.count obs "server.loads.total" 0;
      Obs.count obs "server.reloads.total" 0;
      Obs.count obs "server.drift.tripped" 0;
      let t =
        {
          config;
          obs;
          clock;
          sleep;
          store_path;
          read_rows;
          metas = Atomic.make metas;
          cache;
          cache_mutex = Mutex.create ();
          breaker = Breaker.create ~obs ~clock config.breaker;
          flights = Single_flight.create ~obs ();
          reloads = Single_flight.create ~obs ();
          load_seq = Atomic.make 0;
          drift = Atomic.make [];
          sentinel_window =
            Repro_obs.Rolling.Histogram.create ~now:clock ~window_s:3600.0 ();
        }
      in
      replay_sentinels t flats;
      Ok t

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) (Atomic.get t.metas) []
  |> List.sort compare

let cache_stats t =
  Mutex.lock t.cache_mutex;
  let stats = Cache.stats t.cache in
  Mutex.unlock t.cache_mutex;
  stats

let breaker_state t key = Breaker.state t.breaker key

let cache_find t meta =
  Mutex.lock t.cache_mutex;
  let found = Cache.find t.cache meta.m_cache_key in
  Mutex.unlock t.cache_mutex;
  found

let cache_insert t meta syn =
  Mutex.lock t.cache_mutex;
  Cache.insert t.cache meta.m_cache_key syn;
  Mutex.unlock t.cache_mutex

(* One per-key read of the store file, with chaos injection. Only the
   entry for [key] is rehydrated — the rows it samples read from its two
   tables, whose fingerprints are checked — while the rest of the file is
   still verified.
   Chaos draws from a per-load keyed stream, so a run replays exactly
   from (seed, load sequence); a silent corruption is returned as [Ok] on
   purpose — the checked estimator, not the loader, must catch it. *)
let load_once t key meta seq =
  Obs.count t.obs "server.loads.total" 1;
  match
    Result.bind
      (Csdl.Synopsis_store.read_entry ~read_rows:t.read_rows
         ~path:t.store_path ~key)
      (check_snapshot meta)
  with
  | Error _ as e -> e
  | Ok s ->
      (* flatten {e after} any chaos corruption: the memoized validation
         verdict must describe the synopsis actually served, so the
         checked estimator still catches injected corruption *)
      let flat syn = Csdl.Synopsis_flat.of_synopsis syn in
      if t.config.chaos <= 0.0 then Ok (flat s.synopsis)
      else
        let prng =
          Prng.create_keyed ~seed:t.config.seed
            (Printf.sprintf "chaos/%s/load=%d" key seq)
        in
        if Prng.float prng >= t.config.chaos then Ok (flat s.synopsis)
        else if Prng.bool prng then begin
          Obs.count t.obs
            ~labels:[ ("mode", "fail") ]
            "server.chaos.injected" 1;
          Error
            (Fault.Store_mismatch
               { what = "chaos"; detail = "injected load failure for " ^ key })
        end
        else begin
          Obs.count t.obs
            ~labels:[ ("mode", "corrupt") ]
            "server.chaos.injected" 1;
          let fault = Fault_injection.pick prng in
          Ok (flat (Fault_injection.corrupt fault prng s.synopsis))
        end

(* Resolve a synopsis: cache, then a single-flight breaker-gated retrying
   decode. The breaker counts one failure per exhausted retry sequence
   (not per attempt), so [threshold] consecutive doomed loads trip it. A
   stale snapshot is neither retried nor counted: only [reload] cures it.
   The second component reports whether the first lookup hit the cache —
   the access log's cache column. *)
let load t ~deadline key meta =
  match cache_find t meta with
  | Some syn -> (Ok syn, true)
  | None ->
      ( Single_flight.run t.flights key (fun () ->
          match cache_find t meta with
          | Some syn -> Ok syn
          | None -> (
              match Breaker.acquire t.breaker key with
              | `Open remaining ->
                  Error
                    (Fault.Store_mismatch
                       {
                         what = "circuit breaker";
                         detail =
                           Printf.sprintf "open for %s; retry in %.3fs" key
                             remaining;
                       })
              | `Proceed ->
                  let seq = Atomic.fetch_and_add t.load_seq 1 in
                  let jitter =
                    Prng.create_keyed ~seed:t.config.seed
                      (Printf.sprintf "backoff/%s/seq=%d" key seq)
                  in
                  let result, _attempts =
                    Backoff.retry ~sleep:t.sleep ~deadline
                      ~retryable:(fun fault -> not (stale_snapshot fault))
                      t.config.backoff jitter
                      (fun () -> load_once t key meta seq)
                  in
                  (match result with
                  | Ok syn ->
                      Breaker.success t.breaker key;
                      cache_insert t meta syn
                  | Error fault when stale_snapshot fault ->
                      (* the store is healthy, the snapshot is behind it:
                         nothing for the breaker to count, and a reload
                         must not find the key's breaker open *)
                      Breaker.success t.breaker key
                  | Error _ -> Breaker.failure t.breaker key);
                  result)),
        false )

(* Swap in the store file's current contents without dropping in-flight
   requests. The fresh snapshot (metadata + warmed cache entries) is built
   off to the side and installed with one atomic store: requests already
   past their metas read keep the old meta, and the flats it leads to are
   immutable, so they complete against the synopsis they started with;
   every later request sees the new snapshot. A mutated table changes its
   fingerprint and therefore its cache key, so reloaded synopses never
   collide with cached pre-reload flats (which age out of the LRU).
   Concurrent reloads collapse into one decode via single-flight; a
   failed reload leaves the old snapshot serving. *)
let reload t =
  Single_flight.run t.reloads "reload" (fun () ->
      Obs.count t.obs "server.reloads.total" 1;
      match
        Csdl.Synopsis_store.read_served ~read_rows:t.read_rows
          ~path:t.store_path
      with
      | Error fault -> Error fault
      | Ok entries ->
          let metas, flats = snapshot entries ~insert:(cache_insert t) in
          Atomic.set t.metas metas;
          replay_sentinels t flats;
          Ok (Hashtbl.length metas))

type outcome =
  | Answered of float
  | Degraded of { value : float; trace : Fault.trace }
  | Deadline_exceeded of Fault.error
  | Rejected of Fault.error

let outcome_class = function
  | Answered _ -> "answered"
  | Degraded _ -> "degraded"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Rejected _ -> "err"

let degrade meta ~rung fault =
  Degraded { value = meta.m_prior; trace = [ { Fault.rung; fault } ] }

type detail = { cache_hit : bool; shards : int }

let handle_meta t ~deadline ~key ?rid ?pred_a ?pred_b meta =
  let attrs =
    ("key", key)
    :: (match rid with Some r -> [ ("request_id", r) ] | None -> [])
  in
  Obs.Span.with_ t.obs ~name:"server.request" ~attrs (fun () ->
      let start = t.clock () in
      Obs.count t.obs "server.requests.total" 1;
      let timed_out () =
        Deadline_exceeded (Deadline.fault ~what:"request" deadline)
      in
      let cache_hit = ref false in
      let outcome =
        if Deadline.exceeded deadline then timed_out ()
        else
          match load t ~deadline key meta with
          | Error fault, _ ->
              if Deadline.exceeded deadline then timed_out ()
              else degrade meta ~rung:"synopsis load" fault
          | Ok syn, hit ->
              cache_hit := hit;
              if Deadline.exceeded deadline then timed_out ()
              else
                let pa, pb =
                  if meta.m_swapped then (pred_b, pred_a) else (pred_a, pred_b)
                in
                (* the same function and the same fault-to-value rule as
                   [Store.estimate]: replies are byte-identical to batch *)
                let result =
                  Csdl.Estimate.(value (run_checked_flat ?pred_a:pa ?pred_b:pb syn))
                in
                if Deadline.exceeded deadline then timed_out ()
                else
                  match result with
                  | Ok v -> Answered v
                  (* the request's own mistake (a predicate on a column the
                     table lacks): no fall-back answers it *)
                  | Error (Fault.Bad_input _ as fault) -> Rejected fault
                  | Error fault -> degrade meta ~rung:"csdl" fault
      in
      Obs.count t.obs
        ~labels:[ ("class", outcome_class outcome) ]
        "server.outcome" 1;
      let elapsed = t.clock () -. start in
      (match rid with
      | Some r -> Obs.observe_exemplar t.obs "server.request.seconds" ~id:r elapsed
      | None -> Obs.observe t.obs "server.request.seconds" elapsed);
      (outcome, { cache_hit = !cache_hit; shards = meta.m_shards }))

let handle_traced t ~deadline ~key ?rid ?pred_a ?pred_b () =
  match Hashtbl.find_opt (Atomic.get t.metas) key with
  | None -> None
  | Some meta -> Some (handle_meta t ~deadline ~key ?rid ?pred_a ?pred_b meta)

let handle t ~deadline ~key ?rid ?pred_a ?pred_b () =
  match handle_traced t ~deadline ~key ?rid ?pred_a ?pred_b () with
  | Some (outcome, _) -> outcome
  | None -> raise Not_found
