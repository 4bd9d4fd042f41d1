module Obs = Repro_obs.Obs

type key = {
  fp_a : int64;
  fp_b : int64;
  variant : string;
  theta : float;
  prng_key : string;
}

type 'a slot = { value : 'a; mutable stamp : int }

type 'a t = {
  capacity : int;
  slots : (key, 'a slot) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  hit_cell : Obs.Counter.t;
  miss_cell : Obs.Counter.t;
  eviction_cell : Obs.Counter.t;
  size_cell : Obs.Gauge.t;
}

let create ?(obs = Obs.null) ~capacity () =
  if capacity <= 0 then
    invalid_arg "Synopsis_cache.create: capacity must be positive";
  (* resolving the counters declares them, so a snapshot shows them even
     before any lookup *)
  {
    capacity;
    slots = Hashtbl.create (2 * capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    hit_cell = Obs.Counter.make obs "synopsis_cache.hits";
    miss_cell = Obs.Counter.make obs "synopsis_cache.misses";
    eviction_cell = Obs.Counter.make obs "synopsis_cache.evictions";
    size_cell = Obs.Gauge.make obs "synopsis_cache.size";
  }

let length t = Hashtbl.length t.slots
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

type stats = { s_hits : int; s_misses : int; s_evictions : int; s_size : int }

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_evictions = t.evictions;
    s_size = Hashtbl.length t.slots;
  }

let touch t slot =
  t.tick <- t.tick + 1;
  slot.stamp <- t.tick

let find t key =
  match Hashtbl.find_opt t.slots key with
  | Some slot ->
      t.hits <- t.hits + 1;
      Obs.Counter.incr t.hit_cell;
      touch t slot;
      Some slot.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.Counter.incr t.miss_cell;
      None

(* Least-recently-used eviction by scanning for the smallest stamp. Linear
   in the cache size, which is bounded by [capacity] — fine for the
   handful-of-synopses caches this serves; revisit with an intrusive list
   if capacities ever reach the thousands. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key slot ->
      match !victim with
      | Some (_, best) when best.stamp <= slot.stamp -> ()
      | _ -> victim := Some (key, slot))
    t.slots;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove t.slots key;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr t.eviction_cell

let insert t key value =
  (match Hashtbl.find_opt t.slots key with
  | Some _ -> Hashtbl.remove t.slots key
  | None -> if Hashtbl.length t.slots >= t.capacity then evict_lru t);
  t.tick <- t.tick + 1;
  Hashtbl.replace t.slots key { value; stamp = t.tick };
  Obs.Gauge.set t.size_cell (float_of_int (length t))

let find_or_build t key build =
  match find t key with
  | Some value -> value
  | None ->
      let value = build () in
      insert t key value;
      value
