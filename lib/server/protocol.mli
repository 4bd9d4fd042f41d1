(** The line-oriented wire protocol of the estimation server.

    One request per line, one reply per line (the [metrics] body is
    length-prefixed). The request grammar:

    {v
      estimate <key> [id=<token>] [deadline=<seconds>] [;; <left> [;; <right>]]
      health
      ready
      keys
      metrics
      slo
      reload
      quit
    v}

    A verb is a whole word: [estimate] must be followed by a space or the
    end of the line ([estimatek1] is an unknown verb, not key [k1]).
    [<left>]/[<right>] are selection predicates in
    {!Repro_relation.Predicate_parser} syntax, in the same [;;]-separated
    shape as a [repro_cli batch] query line; an empty or omitted side
    means no selection. [deadline=] overrides the server's default
    per-request budget. [id=] is a client-chosen request ID
    ({!Repro_obs.Request_ctx.is_valid_id}); option tokens may appear in
    either order, and the pre-ID grammar parses unchanged (the server
    assigns an ID).

    Replies all start with a status word, so clients and the load driver
    classify outcomes by the first token. Estimate-path replies echo the
    request ID as an [id=<token>] token right after the status word;
    replies without one keep the exact pre-ID bytes:

    {v
      ok [id=<t>] <%.17g>                              (full CSDL answer)
      degraded [id=<t>] <%.17g> ;; <downgrade trace>   (prior + honest trace)
      deadline_exceeded [id=<t>] ;; <fault>
      shed [id=<t>] retry_after=<seconds>              (load was shed)
      err [id=<t>] <message>   (protocol error / unknown key / unknown column)
      ok <n>\n<n bytes>                                (metrics body)
      ok window=... p50=...                            (slo snapshot line)
    v}

    This module is pure parsing and rendering — shared by {!Server},
    {!Client} and the load driver so the two ends cannot drift. *)

type request =
  | Estimate of {
      key : string;
      id : string option;  (** client-supplied request ID, if any *)
      deadline_s : float option;
      pred_a : Repro_relation.Predicate.t option;
      pred_b : Repro_relation.Predicate.t option;
    }
  | Health
  | Ready
  | Keys
  | Metrics
  | Slo  (** one-line rolling-window SLO snapshot *)
  | Reload  (** atomically swap in the store file's current contents *)
  | Quit

val parse_request : string -> (request, string) result

val render_estimate :
  key:string ->
  ?id:string ->
  ?deadline_s:float ->
  ?pred_a:string ->
  ?pred_b:string ->
  unit ->
  string
(** Client-side: the request line for an estimation query; predicates are
    raw predicate-syntax strings. *)

val render_outcome : ?id:string -> Engine.outcome -> string
(** The reply line for an engine outcome ([%.17g] values, so the [ok]
    line's number is byte-identical to [repro_cli batch] output). With
    [?id], the ID is echoed as the token after the status word. *)

val shed_line : ?id:string -> retry_after_s:float -> unit -> string
val err_line : ?id:string -> string -> string
(** [err_line msg] flattens newlines in [msg] so the reply stays one
    line. *)

type reply =
  | R_ok of float
  | R_degraded of float * string  (** value, rendered downgrade trace *)
  | R_deadline_exceeded of string
  | R_shed of float  (** suggested retry-after seconds *)
  | R_err of string

val parse_reply : string -> (reply, string) result
(** Classify a single reply line (not the [metrics] body). Accepts and
    discards an [id=] token; use {!parse_reply_id} to keep it. *)

val parse_reply_id : string -> (string option * reply, string) result
(** Like {!parse_reply}, also returning the echoed request ID (if the
    reply carries one) — what reconciliation against the access log joins
    on. *)

val reply_class : reply -> string
(** ["answered"] / ["degraded"] / ["deadline_exceeded"] / ["shed"] /
    ["err"] — matching {!Engine.outcome_class} plus the server-level
    classes, so the load driver's accounting keys line up with the
    [server.outcome] counter labels. *)
