(* Client-side spans: one per call the benchmark makes into a layer,
   recorded from outside the program into a Repro_obs.Trace memory sink
   and written as JSONL at the end, in the format [repro_cli trace report]
   reads. *)

module Trace = Repro_obs.Trace

let sink = Trace.memory ()
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let emit ?(id = fresh_id ()) ?parent ?rid ~name ~start ~stop () =
  Trace.emit_span sink
    {
      Trace.id;
      parent;
      name;
      attrs = (match rid with Some r -> [ ("request_id", r) ] | None -> []);
      domain = 0;
      start_s = start +. Host.epoch_offset;
      duration_s = stop -. start;
    }

(* Time [f] as one span; returns its result and duration in seconds. *)
let timed ?parent ?rid name f =
  let start = Host.now () in
  let r = f () in
  let stop = Host.now () in
  emit ?parent ?rid ~name ~start ~stop ();
  (r, stop -. start)

(* A parent span whose id its children need before it closes: reserve the
   id now, emit the record when the parent ends. *)
let parent ?rid name f =
  let id = fresh_id () in
  let start = Host.now () in
  let r = f id in
  let stop = Host.now () in
  emit ~id ?rid ~name ~start ~stop ();
  (r, stop -. start)

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) (Trace.lines sink))
