type live = {
  registry : Metrics.Registry.t;
  sink : Trace.sink option;
  next_span : int Atomic.t;
  closed : bool Atomic.t;
}

type ctx = Null | Live of live

let null = Null

let create ?sink () =
  Live
    {
      registry = Metrics.Registry.create ();
      sink;
      next_span = Atomic.make 1;
      closed = Atomic.make false;
    }

let is_live = function Null -> false | Live _ -> true
let registry = function Null -> None | Live l -> Some l.registry

(* Cells resolved once: [None] on the null context, so a bump there costs
   one branch and a bump on a live one no registry lookup. *)

module Counter = struct
  type t = Metrics.Counter.t option

  let make ctx ?labels name =
    match ctx with
    | Null -> None
    | Live l -> Some (Metrics.Registry.counter l.registry ?labels name)

  let add t n = match t with None -> () | Some c -> Metrics.Counter.add c n
  let incr t = add t 1
end

module Gauge = struct
  type t = Metrics.Gauge.t option

  let make ctx ?labels name =
    match ctx with
    | Null -> None
    | Live l -> Some (Metrics.Registry.gauge l.registry ?labels name)

  let set t v = match t with None -> () | Some g -> Metrics.Gauge.set g v
end

module Histogram = struct
  type t = Metrics.Histogram.t option

  let make ctx ?labels name =
    match ctx with
    | Null -> None
    | Live l -> Some (Metrics.Registry.histogram l.registry ?labels name)

  let observe t v =
    match t with None -> () | Some h -> Metrics.Histogram.observe h v

  let observe_exemplar t ~id v =
    match t with
    | None -> ()
    | Some h -> Metrics.Histogram.observe_exemplar h ~id v
end

let count ctx ?labels name n = Counter.add (Counter.make ctx ?labels name) n
let set_gauge ctx ?labels name v = Gauge.set (Gauge.make ctx ?labels name) v

let observe ctx ?labels name v =
  Histogram.observe (Histogram.make ctx ?labels name) v

(* Runtime health gauges, refreshed on demand (the server calls this on
   every [metrics] verb): [Gc.quick_stat] reads counters without forcing
   a collection, so a scrape stays cheap. *)
let record_runtime ?domains ctx =
  match ctx with
  | Null -> ()
  | Live _ ->
      let s = Gc.quick_stat () in
      set_gauge ctx "runtime.gc.heap_words" (float_of_int s.Gc.heap_words);
      set_gauge ctx "runtime.gc.minor_collections"
        (float_of_int s.Gc.minor_collections);
      set_gauge ctx "runtime.gc.major_collections"
        (float_of_int s.Gc.major_collections);
      (match domains with
      | None -> ()
      | Some n -> set_gauge ctx "runtime.domains" (float_of_int n))

let set_build_info ctx ~store_version ~git =
  set_gauge ctx
    ~labels:
      [
        ("ocaml", Sys.ocaml_version);
        ("store_version", string_of_int store_version);
        ("git", git);
      ]
    "repro.build.info" 1.0

module Span = struct
  (* The innermost open span of the current domain. Spans never cross a
     domain boundary (Pool tasks start fresh on their worker), so a
     per-domain cell is exactly the right parent scope. *)
  let current : int option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  type t =
    | Off
    | On of { live : live; name : string; seconds : Metrics.Histogram.t }

  let make ctx ~name =
    match ctx with
    | Null -> Off
    | Live l ->
        On
          {
            live = l;
            name;
            seconds =
              Metrics.Registry.histogram l.registry
                ~labels:[ ("name", name) ]
                "span_seconds";
          }

  let run span ?(attrs = []) f =
    match span with
    | Off -> f ()
    | On { live = l; name; seconds } -> (
        let start_s = Unix.gettimeofday () in
        let finish () =
          let duration_s = Float.max 0.0 (Unix.gettimeofday () -. start_s) in
          Metrics.Histogram.observe seconds duration_s;
          duration_s
        in
        match l.sink with
        | None -> (
            match f () with
            | v ->
                ignore (finish () : float);
                v
            | exception exn ->
                ignore (finish () : float);
                raise exn)
        | Some sink -> (
            let id = Atomic.fetch_and_add l.next_span 1 in
            let slot = Domain.DLS.get current in
            let parent = !slot in
            slot := Some id;
            let close extra_attrs =
              slot := parent;
              let duration_s = finish () in
              Trace.emit_span sink
                {
                  Trace.id;
                  parent;
                  name;
                  attrs = attrs @ extra_attrs;
                  domain = (Domain.self () :> int);
                  start_s;
                  duration_s;
                }
            in
            match f () with
            | v ->
                close [];
                v
            | exception exn ->
                close [ ("error", Printexc.to_string exn) ];
                raise exn))

  let with_ ctx ~name ?attrs f = run (make ctx ~name) ?attrs f
end

let prometheus = function
  | Null -> None
  | Live l -> Some (Metrics.render_prometheus l.registry)

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Trace.escape_string k)
             (Trace.escape_string v))
         labels)
  ^ "}"

let dump_metrics ctx =
  match ctx with
  | Null | Live { sink = None; _ } -> ()
  | Live { registry; sink = Some sink; _ } ->
      List.iter
        (fun (name, labels, point) ->
          let common =
            Printf.sprintf "\"name\":\"%s\",\"labels\":%s"
              (Trace.escape_string name) (json_labels labels)
          in
          let line =
            match point with
            | Metrics.P_counter v ->
                Printf.sprintf "{\"type\":\"counter\",%s,\"value\":%d}" common v
            | Metrics.P_gauge v ->
                Printf.sprintf "{\"type\":\"gauge\",%s,\"value\":%.17g}" common v
            | Metrics.P_histogram { count; sum; buckets } ->
                Printf.sprintf
                  "{\"type\":\"histogram\",%s,\"count\":%d,\"sum\":%.17g,\"buckets\":[%s]}"
                  common count sum
                  (String.concat ","
                     (List.map
                        (fun (upper, c) -> Printf.sprintf "[%.17g,%d]" upper c)
                        buckets))
          in
          Trace.emit_line sink line)
        (Metrics.Registry.snapshot registry)

let close ctx =
  match ctx with
  | Null | Live { sink = None; _ } -> ()
  | Live ({ sink = Some sink; _ } as l) ->
      (* The exchange makes close idempotent even on sinks that cannot
         track closure themselves (memory sinks): without it a second
         close would append the metrics dump again. *)
      if not (Atomic.exchange l.closed true) then begin
        dump_metrics ctx;
        Trace.close sink
      end
