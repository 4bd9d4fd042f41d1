(* Lock-free metric cells. Floats live in a [float Atomic.t]; accumulation
   is a CAS retry loop on the boxed value, which is correct because
   [Atomic.compare_and_set] compares the box physically and [Atomic.get]
   returns the exact box that was stored. *)

let rec atomic_add_float cell delta =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. delta)) then
    atomic_add_float cell delta

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let add t n = ignore (Atomic.fetch_and_add t n : int)
  let incr t = add t 1
  let value = Atomic.get
end

module Gauge = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.0
  let set = Atomic.set
  let add = atomic_add_float
  let value = Atomic.get
end

module Histogram = struct
  (* Power-of-two buckets: bucket [i] has exclusive upper bound
     [2^(i + low_exp)] with [low_exp = -30], so the range 2^-30 (~1ns as
     seconds) .. 2^35 (~3.4e10: iteration counts, tuple counts) is covered
     and both tails clamp into the end buckets. *)
  let low_exp = -30
  let bucket_count = 66

  type t = {
    buckets : int Atomic.t array;
    sum : float Atomic.t;
    count : int Atomic.t;
    exemplar : (string * float) option Atomic.t;
  }

  let create () =
    {
      buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.0;
      count = Atomic.make 0;
      exemplar = Atomic.make None;
    }

  let bucket_upper i = Float.ldexp 1.0 (low_exp + i + 1)

  let bucket_index v =
    if not (v > 0.0) then 0 (* zero, negatives; NaN never reaches here *)
    else if v = Float.infinity then bucket_count - 1
    else begin
      (* frexp: v = m * 2^e with m in [0.5, 1), i.e. v in [2^(e-1), 2^e);
         the bucket with upper bound 2^e is index e - 1 - low_exp. *)
      let _, e = Float.frexp v in
      let i = e - 1 - low_exp in
      if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i
    end

  let observe t v =
    if not (Float.is_nan v) then begin
      ignore (Atomic.fetch_and_add t.buckets.(bucket_index v) 1 : int);
      atomic_add_float t.sum v;
      ignore (Atomic.fetch_and_add t.count 1 : int)
    end

  let count t = Atomic.get t.count
  let sum t = Atomic.get t.sum
  let bucket_value t i = Atomic.get t.buckets.(i)

  (* Exemplars ride alongside the buckets: the last (id, value) pair
     observed, for joining a scraped latency spike back to the request
     that caused it. Never rendered into the Prometheus text format, so
     registries with exemplars snapshot byte-identically to ones
     without. *)
  let observe_exemplar t ~id v =
    observe t v;
    if not (Float.is_nan v) then Atomic.set t.exemplar (Some (id, v))

  let exemplar t = Atomic.get t.exemplar

  let nonzero_buckets t =
    let acc = ref [] in
    for i = bucket_count - 1 downto 0 do
      let c = Atomic.get t.buckets.(i) in
      if c > 0 then acc := (bucket_upper i, c) :: !acc
    done;
    !acc

  let bucket_lower i = if i = 0 then 0.0 else bucket_upper (i - 1)

  (* The bucket walk, abstracted over how bucket counts are read so
     [Rolling] can reuse the exact same estimate over its merged
     window slots. *)
  let quantile_of ~bucket ~total q =
    if total = 0 then Float.nan
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      (* Prometheus-style rank: the q-th observation in cumulative bucket
         order, linearly interpolated inside the bucket it lands in. *)
      let rank = q *. float_of_int total in
      let rec find i cumulative =
        (* total > 0 guarantees some bucket is non-empty, so [find]
           always terminates before running off the end *)
        let c = bucket i in
        let cumulative' = cumulative +. float_of_int c in
        if c > 0 && cumulative' >= rank then
          if i = bucket_count - 1 then
            (* the clamp bucket holds everything >= its lower bound,
               including infinities — its nominal upper bound says nothing
               about the observations, so don't interpolate toward it *)
            bucket_lower i
          else begin
            let lower = bucket_lower i and upper = bucket_upper i in
            let within = (rank -. cumulative) /. float_of_int c in
            lower +. (Float.max 0.0 (Float.min 1.0 within) *. (upper -. lower))
          end
        else find (i + 1) cumulative'
      in
      find 0 0.0
    end

  let quantile t q =
    quantile_of ~bucket:(fun i -> Atomic.get t.buckets.(i)) ~total:(count t) q
end

type point =
  | P_counter of int
  | P_gauge of float
  | P_histogram of { count : int; sum : float; buckets : (float * int) list }

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

module Registry = struct
  (* Creation and lookup take the mutex; the returned cells are then
     mutated lock-free. Keys canonicalise the label order so the same
     logical metric is one cell regardless of call-site label order. *)
  type key = string * (string * string) list

  type t = {
    mutex : Mutex.t;
    table : (key, metric) Hashtbl.t;
    lookups : int Atomic.t;
  }

  let create () =
    { mutex = Mutex.create (); table = Hashtbl.create 64; lookups = Atomic.make 0 }

  let lookups t = Atomic.get t.lookups

  let canonical labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels

  let kind_name = function
    | M_counter _ -> "counter"
    | M_gauge _ -> "gauge"
    | M_histogram _ -> "histogram"

  let get_or_create t ?(labels = []) name ~kind ~make ~cast =
    let key = (name, canonical labels) in
    Atomic.incr t.lookups;
    Mutex.lock t.mutex;
    let metric =
      match Hashtbl.find_opt t.table key with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.add t.table key m;
          m
    in
    Mutex.unlock t.mutex;
    match cast metric with
    | Some cell -> cell
    | None ->
        invalid_arg
          (Printf.sprintf "Metrics.Registry: %s is a %s, not a %s" name
             (kind_name metric) kind)

  let counter t ?labels name =
    get_or_create t ?labels name ~kind:"counter"
      ~make:(fun () -> M_counter (Counter.create ()))
      ~cast:(function M_counter c -> Some c | _ -> None)

  let gauge t ?labels name =
    get_or_create t ?labels name ~kind:"gauge"
      ~make:(fun () -> M_gauge (Gauge.create ()))
      ~cast:(function M_gauge g -> Some g | _ -> None)

  let histogram t ?labels name =
    get_or_create t ?labels name ~kind:"histogram"
      ~make:(fun () -> M_histogram (Histogram.create ()))
      ~cast:(function M_histogram h -> Some h | _ -> None)

  let snapshot t =
    Mutex.lock t.mutex;
    let entries =
      Hashtbl.fold (fun (name, labels) m acc -> (name, labels, m) :: acc)
        t.table []
    in
    Mutex.unlock t.mutex;
    entries
    |> List.map (fun (name, labels, m) ->
           let p =
             match m with
             | M_counter c -> P_counter (Counter.value c)
             | M_gauge g -> P_gauge (Gauge.value g)
             | M_histogram h ->
                 P_histogram
                   {
                     count = Histogram.count h;
                     sum = Histogram.sum h;
                     buckets = Histogram.nonzero_buckets h;
                   }
           in
           (name, labels, p))
    |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
end

(* ---------------- Prometheus text rendering ---------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             labels)
      ^ "}"

let render_prometheus registry =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (raw_name, labels, point) ->
      let name = sanitize raw_name in
      match point with
      | P_counter v ->
          type_line name "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (render_labels labels) v)
      | P_gauge v ->
          type_line name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (render_labels labels)
               (float_str v))
      | P_histogram { count; sum; buckets } ->
          type_line name "histogram";
          let cumulative = ref 0 in
          List.iter
            (fun (upper, c) ->
              cumulative := !cumulative + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (render_labels (labels @ [ ("le", float_str upper) ]))
                   !cumulative))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name
               (render_labels (labels @ [ ("le", "+Inf") ]))
               count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
               (float_str sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
               count))
    (Registry.snapshot registry);
  Buffer.contents buf
