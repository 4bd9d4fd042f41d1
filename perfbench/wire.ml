(* One blocking keep-alive connection to the daemon. Reads and writes are
   bounded by a 2 s socket timeout; a request that gets no reply in time
   raises [Timeout] and leaves the connection unusable. *)

exception Timeout

type t = { fd : Unix.file_descr; ic : in_channel }

let timeout = 2.0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let n = String.length line in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd line off (n - off))
  in
  try go 0 with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout

let recv c =
  try input_line c.ic with
  | Sys_blocked_io | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Timeout
  | Sys_error _ -> raise Timeout

(* [line] must end in a newline. *)
let call c line =
  send c line;
  recv c

(* The [metrics] verb: a length-prefixed Prometheus body. *)
let metrics c =
  match String.split_on_char ' ' (call c "metrics\n") with
  | [ "ok"; n ] -> really_input_string c.ic (int_of_string n)
  | _ -> Proc.fail "metrics: unexpected reply"
