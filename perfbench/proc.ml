(* Child processes with bounded waits. Every child is tracked until it is
   reaped, and [stop_all] (run on every exit path) sends SIGTERM, then
   SIGKILL after a grace period, and reaps. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let live : int list ref = ref []

let spawn ?(stdout = "/dev/null") ?(stderr = "/dev/null") prog args =
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err =
    Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out
          err)
  in
  live := pid :: !live;
  pid

let reaped pid = live := List.filter (fun p -> p <> pid) !live

(* Poll for exit for at most [timeout] seconds; [None] if still running. *)
let wait_for ~timeout pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go delay =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then None
        else begin
          Unix.sleepf delay;
          go (Float.min 0.01 (delay *. 2.0))
        end
    | _, status ->
        reaped pid;
        Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go delay
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        reaped pid;
        Some (Unix.WEXITED 0)
  in
  go 0.0005

let stop ?(grace = 5.0) pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match wait_for ~timeout:grace pid with
    | Some _ -> ()
    | None -> (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        match wait_for ~timeout:10.0 pid with
        | Some _ -> ()
        | None -> reaped pid)
  end

let stop_all () = List.iter (fun pid -> stop pid) !live

(* Run a child to completion within [timeout] seconds; fails (after
   killing it) on a timeout or a non-zero exit. *)
let run ~timeout ?stdout ?stderr prog args =
  let pid = spawn ?stdout ?stderr prog args in
  match wait_for ~timeout pid with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> fail "%s %s failed" prog (String.concat " " args)
  | None ->
      stop ~grace:1.0 pid;
      fail "%s %s timed out after %.0fs" prog (String.concat " " args) timeout

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

(* Resident set of [pid] in MB, from /proc. *)
let rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> Float.nan
  | s ->
      let lines = String.split_on_char '\n' s in
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmRSS: %d kB" (fun kb -> kb) with
          | kb -> float kb /. 1024.0
          | exception _ -> acc)
        Float.nan lines

(* Other running [repro_cli serve] daemons (any user, any checkout). A
   leaked daemon steals the pinned vCPU, so timing refuses to start. *)
let other_daemons () =
  let self = Unix.getpid () in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some pid when pid <> self && not (List.mem pid !live) -> (
             match read_file (Printf.sprintf "/proc/%d/cmdline" pid) with
             | exception Sys_error _ -> None
             | cmd -> (
                 match String.split_on_char '\000' cmd with
                 | prog :: "serve" :: _
                   when Filename.basename prog = "repro_cli.exe"
                        || Filename.basename prog = "repro_cli" ->
                     Some pid
                 | _ -> None))
         | _ -> None)
