(** Retry with jittered exponential backoff, bounded by a deadline.

    Transient store faults (a reader racing a writer, an injected chaos
    fault) deserve a few retries; correlated retry storms do not. Delays
    are therefore "full jitter": uniform in [0, cap) where the cap doubles
    per attempt — drawn from the caller's keyed {!Repro_util.Prng} stream,
    so every schedule replays from a seed. Sleeping goes through an
    injectable {!Repro_util.Clock.sleeper}, so tests run in zero wall
    time. *)

type policy = {
  attempts : int;  (** total tries, first included; min 1 *)
  base_s : float;  (** delay cap before the first retry *)
  multiplier : float;  (** cap growth per attempt *)
  max_delay_s : float;  (** hard cap on any single delay *)
}

val default : policy
(** 3 attempts, 2ms base, doubling, capped at 50ms. *)

val delay : policy -> Repro_util.Prng.t -> attempt:int -> float
(** The jittered delay after failed attempt [attempt] (0-based):
    uniform in [0, min (base_s * multiplier^attempt) max_delay_s). *)

val retry :
  ?sleep:Repro_util.Clock.sleeper ->
  ?deadline:Deadline.t ->
  ?retryable:('e -> bool) ->
  policy ->
  Repro_util.Prng.t ->
  (unit -> ('a, 'e) result) ->
  ('a, 'e) result * int
(** [retry policy prng f] runs [f] up to [policy.attempts] times, sleeping
    the jittered delay between tries, and returns the first [Ok] (or the
    last [Error]) along with the number of attempts made. With [deadline],
    no further attempt starts once it has expired, and each sleep is
    truncated to the remaining budget — retrying never blows through a
    request deadline. An error for which [retryable] (default: every
    error) is false ends the sequence at once: a fault that another
    attempt cannot cure costs no sleeps. *)
