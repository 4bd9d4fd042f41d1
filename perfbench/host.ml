(* Host-speed reference. On a shared cloud VM a vCPU's speed moves by tens
   of percent within a minute, so raw wall times track the host, not the
   code. A fixed computation timed on the same pinned vCPU right beside
   each measurement tells how fast the host was at that moment; every
   timing is then scaled to what it would have taken at the nominal
   speed. *)

(* Monotonic nanoseconds (clock_gettime): gettimeofday's microsecond
   ticks are too coarse for a parse that takes one. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Spans carry wall-clock start times. *)
let epoch_offset = Unix.gettimeofday () -. now ()

(* The slice time the reference kernel is scaled to. Adjusted times are in
   these nominal units: measured x (nominal_us / reference measured). *)
let nominal_us = 600.0

(* Working set: 32 KiB of floats and a 4096-slot int table, well inside
   one core's private L2, so the slice measures the core and not whatever
   the daemon left in the shared cache. *)
let floats = Array.init 4096 (fun i -> float_of_int (i land 255) *. 0.25)
let table : (int, int) Hashtbl.t = Hashtbl.create 4096

let kernel rounds =
  let acc = ref 0.0 in
  for r = 1 to rounds do
    let s = ref 0.0 in
    for i = 0 to Array.length floats - 1 do
      s := !s +. Array.unsafe_get floats i
    done;
    for k = 0 to 255 do
      let key = ((k * 7919) + r) land 4095 in
      Hashtbl.replace table key (k + r);
      acc := !acc +. float_of_int (Hashtbl.find table key)
    done;
    let l = List.init 48 (fun i -> (i, float_of_int (i + r))) in
    acc := !acc +. !s +. float_of_int (List.length l)
  done;
  !acc

let rounds = 32

(* One reference slice: untimed warm-up rounds, then the timed rounds
   (about 0.6 ms on a 2-vCPU Xeon cloud VM). Returns the timed part in
   microseconds. *)
let slice () =
  ignore (Sys.opaque_identity (kernel 4));
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel rounds));
  (now () -. t0) *. 1e6

(* Every slice of a run, in order, for host.ref_us and host.ref_spread. *)
let slices : float list ref = ref []

let measure () =
  let us = slice () in
  slices := us :: !slices;
  us

(* What brackets a set-up, build or reload: the median of 15 back-to-back
   slices (~9 ms), so one slice hit by an interrupt does not skew the step
   it brackets. *)
let bracket () =
  let xs = List.init 15 (fun _ -> measure ()) in
  List.nth (List.sort Float.compare xs) 7

(* Multiplier turning a time measured beside reference slices [refs]
   into nominal units (a rate is divided by it). *)
let factor refs =
  let refs = List.filter (fun x -> x > 0.0) refs in
  match refs with
  | [] -> 1.0
  | _ -> nominal_us /. (List.fold_left ( +. ) 0.0 refs /. float (List.length refs))
