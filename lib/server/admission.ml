module Obs = Repro_obs.Obs

type policy = Reject | Drop_oldest

type 'a t = {
  depth_cell : Obs.Gauge.t;
  shed_cell : Obs.Counter.t;
  policy : policy;
  capacity : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable closed : bool;
}

let policy_label = function Reject -> "reject" | Drop_oldest -> "drop_oldest"

let create ?(obs = Obs.null) ~policy ~capacity () =
  let depth_cell = Obs.Gauge.make obs "server.queue.depth" in
  Obs.Gauge.set depth_cell 0.0;
  {
    depth_cell;
    shed_cell =
      Obs.Counter.make obs
        ~labels:[ ("policy", policy_label policy) ]
        "server.queue.shed";
    policy;
    capacity = max 1 capacity;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    closed = false;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

type 'a offer_result = Admitted | Rejected | Displaced of 'a | Closed

let offer t item =
  let result =
    locked t (fun () ->
        if t.closed then Closed
        else if Queue.length t.items < t.capacity then begin
          Queue.push item t.items;
          Condition.signal t.nonempty;
          Admitted
        end
        else
          match t.policy with
          | Reject -> Rejected
          | Drop_oldest ->
              let oldest = Queue.pop t.items in
              Queue.push item t.items;
              Condition.signal t.nonempty;
              Displaced oldest)
  in
  (match result with
  | Admitted | Displaced _ ->
      Obs.Gauge.set t.depth_cell
        (float_of_int (locked t (fun () -> Queue.length t.items)))
  | Rejected | Closed -> ());
  (match result with
  | Rejected | Displaced _ -> Obs.Counter.incr t.shed_cell
  | Admitted | Closed -> ());
  result

let take t =
  let item =
    locked t (fun () ->
        let rec wait () =
          if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
          else if t.closed then None
          else begin
            Condition.wait t.nonempty t.mutex;
            wait ()
          end
        in
        wait ())
  in
  if item <> None then
    Obs.Gauge.set t.depth_cell
      (float_of_int (locked t (fun () -> Queue.length t.items)));
  item

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let depth t = locked t (fun () -> Queue.length t.items)
