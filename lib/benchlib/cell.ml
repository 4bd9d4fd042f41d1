module Clock = Repro_util.Clock
module Summary = Repro_util.Summary

type t = {
  label : string;
  estimates : float array;
  median_estimate : float;
  median_qerror : float;
  rel_variance : float;
  mean_tuples : float;
  mean_wall_seconds : float;
  mean_cpu_seconds : float;
  mean_draw_seconds : float;
  zero_runs : int;
}

let run ?(clock = Clock.wall) ?(tuples = fun _ -> 0) ~label ~runs ~truth
    ~draw ~estimate () =
  let estimates = Array.make runs 0.0 in
  let wall_total = ref 0.0 and cpu_total = ref 0.0 in
  let draw_total = ref 0.0 and tuples_total = ref 0 and zero_runs = ref 0 in
  for i = 0 to runs - 1 do
    let synopsis, draw_span =
      Clock.time ~wall_clock:clock (fun () -> draw i)
    in
    draw_total := !draw_total +. draw_span.Clock.wall_seconds;
    tuples_total := !tuples_total + tuples synopsis;
    let value, span =
      Clock.time ~wall_clock:clock (fun () -> estimate synopsis)
    in
    estimates.(i) <- value;
    wall_total := !wall_total +. span.Clock.wall_seconds;
    cpu_total := !cpu_total +. span.Clock.cpu_seconds;
    if value = 0.0 then incr zero_runs
  done;
  let qerrors =
    Array.map
      (fun estimate -> Repro_stats.Qerror.compute ~truth ~estimate)
      estimates
  in
  let per_run total = total /. float_of_int runs in
  {
    label;
    estimates;
    median_estimate = Summary.median estimates;
    median_qerror = Summary.median qerrors;
    rel_variance = Summary.relative_variance ~truth estimates;
    mean_tuples = per_run (float_of_int !tuples_total);
    mean_wall_seconds = per_run !wall_total;
    mean_cpu_seconds = per_run !cpu_total;
    mean_draw_seconds = per_run !draw_total;
    zero_runs = !zero_runs;
  }

let record ~experiment ~query ~theta ~jvd ~truth c =
  {
    Provenance.empty with
    Provenance.experiment;
    query;
    variant = c.label;
    theta;
    jvd;
    sample_tuples = c.mean_tuples;
    truth;
    estimate = c.median_estimate;
    qerror = c.median_qerror;
    runs = Array.length c.estimates;
    zero_runs = c.zero_runs;
    wall_seconds = c.mean_wall_seconds;
    cpu_seconds = c.mean_cpu_seconds;
    offline_wall_seconds = c.mean_draw_seconds;
  }
