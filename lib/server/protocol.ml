module Predicate_parser = Repro_relation.Predicate_parser
module Fault = Csdl.Fault

type request =
  | Estimate of {
      key : string;
      id : string option;
      deadline_s : float option;
      pred_a : Repro_relation.Predicate.t option;
      pred_b : Repro_relation.Predicate.t option;
    }
  | Health
  | Ready
  | Keys
  | Metrics
  | Slo
  | Reload
  | Quit

(* Split on the first top-level ";;", as batch query files do. *)
let split_once_on_sep s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = ';' && s.[i + 1] = ';' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 2) (n - i - 2)))

let parse_pred what s =
  let s = String.trim s in
  if s = "" then Ok None
  else
    match Predicate_parser.parse s with
    | Ok p -> Ok (Some p)
    | Error e -> Error (Printf.sprintf "%s predicate: %s" what e)

let parse_estimate rest =
  let ( let* ) = Result.bind in
  let head, tail = split_once_on_sep rest in
  let left, right =
    match tail with
    | None -> ("", "")
    | Some tail ->
        let l, r = split_once_on_sep tail in
        (l, Option.value ~default:"" r)
  in
  let words =
    String.split_on_char ' ' (String.trim head)
    |> List.filter (fun w -> w <> "")
  in
  let* key, opts =
    match words with
    | [] -> Error "estimate needs a key"
    | key :: opts -> Ok (key, opts)
  in
  let has_prefix p w =
    String.length w > String.length p && String.sub w 0 (String.length p) = p
  in
  let after p w = String.sub w (String.length p) (String.length w - String.length p) in
  (* option tokens accepted in any order after the key *)
  let* id, deadline_s =
    List.fold_left
      (fun acc opt ->
        let* id, deadline_s = acc in
        if has_prefix "id=" opt then
          let v = after "id=" opt in
          if Repro_obs.Request_ctx.is_valid_id v then Ok (Some v, deadline_s)
          else Error (Printf.sprintf "bad id %S" v)
        else if has_prefix "deadline=" opt then
          let v = after "deadline=" opt in
          match float_of_string_opt v with
          | Some d when Float.is_finite d && d > 0.0 -> Ok (id, Some d)
          | _ -> Error (Printf.sprintf "bad deadline %S" v)
        else
          Error
            "estimate takes a key and optional id=<token> deadline=<seconds>")
      (Ok (None, None))
      opts
  in
  let* pred_a = parse_pred "left" left in
  let* pred_b = parse_pred "right" right in
  Ok (Estimate { key; id; deadline_s; pred_a; pred_b })

let parse_request line =
  let line = String.trim line in
  match line with
  | "health" -> Ok Health
  | "ready" -> Ok Ready
  | "keys" -> Ok Keys
  | "metrics" -> Ok Metrics
  | "slo" -> Ok Slo
  | "reload" -> Ok Reload
  | "quit" -> Ok Quit
  | _ ->
      (* the verb is a whole word: a space or the end of the line ends
         it, so "estimatek1" is not an estimate of key "k1" *)
      if
        String.starts_with ~prefix:"estimate" line
        && (String.length line = 8 || line.[8] = ' ')
      then parse_estimate (String.sub line 8 (String.length line - 8))
      else
        Error
          "unknown verb (try: estimate, health, ready, keys, metrics, slo, \
           reload, quit)"

let render_estimate ~key ?id ?deadline_s ?pred_a ?pred_b () =
  let b = Buffer.create 64 in
  Buffer.add_string b "estimate ";
  Buffer.add_string b key;
  Option.iter (fun rid -> Buffer.add_string b (" id=" ^ rid)) id;
  Option.iter (fun d -> Buffer.add_string b (Printf.sprintf " deadline=%g" d)) deadline_s;
  (match (pred_a, pred_b) with
  | None, None -> ()
  | _ ->
      Buffer.add_string b " ;; ";
      Buffer.add_string b (Option.value ~default:"" pred_a);
      Buffer.add_string b " ;; ";
      Buffer.add_string b (Option.value ~default:"" pred_b));
  Buffer.contents b

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* The id token sits right after the status word so replies without one
   keep their historical bytes — the server-smoke cmp against batch
   output compares parsed values, but err/health/ready lines are grepped
   raw. *)
let id_tag = function None -> "" | Some rid -> "id=" ^ rid ^ " "
let err_line ?id msg = "err " ^ id_tag id ^ one_line msg

(* [Printf]'s [%.17g] ends in this same primitive; calling it directly
   skips the format interpreter and gives the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let render_outcome ?id outcome =
  let tag = id_tag id in
  match outcome with
  | Engine.Answered v -> String.concat "" [ "ok "; tag; format_float "%.17g" v ]
  | Engine.Degraded { value; trace } ->
      Printf.sprintf "degraded %s%.17g ;; %s" tag value
        (one_line (Fault.trace_to_string trace))
  | Engine.Deadline_exceeded fault ->
      Printf.sprintf "deadline_exceeded %s;; %s" tag
        (one_line (Fault.error_to_string fault))
  | Engine.Rejected fault -> err_line ?id (Fault.error_to_string fault)

let shed_line ?id ~retry_after_s () =
  Printf.sprintf "shed %sretry_after=%.3f" (id_tag id) retry_after_s

type reply =
  | R_ok of float
  | R_degraded of float * string
  | R_deadline_exceeded of string
  | R_shed of float
  | R_err of string

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_reply_id line =
  let line = String.trim line in
  let word, rest = split_word line in
  (* the optional id token sits immediately after the status word *)
  let id, rest =
    let r = String.trim rest in
    if String.length r > 3 && String.sub r 0 3 = "id=" then
      let tok, rest' = split_word r in
      (Some (String.sub tok 3 (String.length tok - 3)), rest')
    else (None, rest)
  in
  Result.map
    (fun reply -> (id, reply))
    (match word with
  | "ok" -> (
      match float_of_string_opt (String.trim rest) with
      | Some v -> Ok (R_ok v)
      | None -> Error (Printf.sprintf "bad ok value %S" rest))
  | "degraded" -> (
      let value, trace = split_once_on_sep rest in
      match float_of_string_opt (String.trim value) with
      | Some v -> Ok (R_degraded (v, String.trim (Option.value ~default:"" trace)))
      | None -> Error (Printf.sprintf "bad degraded value %S" value))
  | "deadline_exceeded" ->
      let _, fault = split_once_on_sep rest in
      Ok (R_deadline_exceeded (String.trim (Option.value ~default:"" fault)))
  | "shed" -> (
      let rest = String.trim rest in
      let prefix = "retry_after=" in
      let plen = String.length prefix in
      if String.length rest > plen && String.sub rest 0 plen = prefix then
        match float_of_string_opt (String.sub rest plen (String.length rest - plen)) with
        | Some v -> Ok (R_shed v)
        | None -> Error (Printf.sprintf "bad shed line %S" rest)
      else Ok (R_shed 0.0))
    | "err" -> Ok (R_err rest)
    | _ -> Error (Printf.sprintf "unknown reply %S" line))

let parse_reply line = Result.map snd (parse_reply_id line)

let reply_class = function
  | R_ok _ -> "answered"
  | R_degraded _ -> "degraded"
  | R_deadline_exceeded _ -> "deadline_exceeded"
  | R_shed _ -> "shed"
  | R_err _ -> "err"
