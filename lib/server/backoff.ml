module Clock = Repro_util.Clock
module Prng = Repro_util.Prng

type policy = {
  attempts : int;
  base_s : float;
  multiplier : float;
  max_delay_s : float;
}

let default = { attempts = 3; base_s = 0.002; multiplier = 2.0; max_delay_s = 0.05 }

let delay policy prng ~attempt =
  let cap =
    Float.min
      (policy.base_s *. (policy.multiplier ** float_of_int attempt))
      policy.max_delay_s
  in
  Prng.float prng *. Float.max 0.0 cap

let expired = function
  | None -> false
  | Some deadline -> Deadline.exceeded deadline

let retry ?(sleep = Clock.sleepf) ?deadline ?(retryable = fun _ -> true) policy
    prng f =
  let attempts = max 1 policy.attempts in
  let rec go attempt =
    match f () with
    | Ok _ as ok -> (ok, attempt + 1)
    | Error e as err ->
        if attempt + 1 >= attempts || expired deadline || not (retryable e) then
          (err, attempt + 1)
        else begin
          let d = delay policy prng ~attempt in
          let d =
            match deadline with
            | None -> d
            | Some deadline -> Float.min d (Deadline.remaining deadline)
          in
          sleep (Float.max 0.0 d);
          if expired deadline then (err, attempt + 1) else go (attempt + 1)
        end
  in
  go 0
