type summary = {
  approach : string;
  mean_wall_seconds : float;
  mean_cpu_seconds : float;
  fraction_under : float;
  threshold_seconds : float;
  queries_measured : int;
  queries_total : int;
  zero_estimate_runs : int;
}

let run (config : Config.t) results =
  (* the paper times the smallest budget; use the smallest configured one *)
  let timing_theta = List.fold_left Float.min Float.infinity config.Config.thetas in
  let at_theta =
    List.filter (fun r -> r.Exp_two_table.theta = timing_theta) results
  in
  let cell_of label (r : Exp_two_table.query_result) =
    Exp_two_table.find_cell
      ~context:("Timing summary, query " ^ r.Exp_two_table.name)
      label r.Exp_two_table.cells
  in
  let opt_cell (r : Exp_two_table.query_result) =
    let label =
      if r.Exp_two_table.jvd < config.Config.jvd_threshold then "1,diff"
      else "t,diff"
    in
    cell_of label r
  in
  let obs = config.Config.obs in
  let summarise approach threshold_seconds cells =
    (* every run is timed now — zero-estimate runs included, so the mean
       is no longer biased toward successful runs. Cells whose timing is
       NaN (possible only with a broken injected clock) are excluded but
       still counted in [queries_total]. *)
    let measured =
      List.filter
        (fun c -> not (Float.is_nan c.Cell.mean_wall_seconds))
        cells
    in
    if Repro_obs.Obs.is_live obs then
      List.iter
        (fun c ->
          let labels = [ ("approach", approach) ] in
          Repro_obs.Obs.observe obs ~labels "bench.query.wall_seconds"
            c.Cell.mean_wall_seconds;
          Repro_obs.Obs.observe obs ~labels "bench.query.cpu_seconds"
            c.Cell.mean_cpu_seconds)
        measured;
    let n = List.length measured in
    let zero_estimate_runs =
      List.fold_left (fun acc c -> acc + c.Cell.zero_runs) 0 cells
    in
    if n = 0 then
      {
        approach;
        mean_wall_seconds = Float.nan;
        mean_cpu_seconds = Float.nan;
        fraction_under = Float.nan;
        threshold_seconds;
        queries_measured = 0;
        queries_total = List.length cells;
        zero_estimate_runs;
      }
    else
      let mean of_cell =
        List.fold_left (fun acc c -> acc +. of_cell c) 0.0 measured
        /. float_of_int n
      in
      let under =
        List.length
          (List.filter
             (fun c -> c.Cell.mean_wall_seconds < threshold_seconds)
             measured)
      in
      {
        approach;
        mean_wall_seconds = mean (fun c -> c.Cell.mean_wall_seconds);
        mean_cpu_seconds = mean (fun c -> c.Cell.mean_cpu_seconds);
        fraction_under = float_of_int under /. float_of_int n;
        threshold_seconds;
        queries_measured = n;
        queries_total = List.length cells;
        zero_estimate_runs;
      }
  in
  [
    summarise "CSDL-Opt" 0.5 (List.map opt_cell at_theta);
    summarise "CS2L" 0.15 (List.map (cell_of "CS2L") at_theta);
  ]

let print ?ppf summaries =
  let seconds v = if Float.is_nan v then "n/a" else Printf.sprintf "%.4f" v in
  Render.print_table ?ppf
    ~title:"Estimation time (smallest theta, wall clock, all runs timed)"
    ~header:
      [
        "Approach"; "wall mean (s)"; "cpu mean (s)"; "under"; "fraction";
        "queries"; "zero-est runs";
      ]
    ~rows:
      (List.map
         (fun s ->
           [
             s.approach;
             seconds s.mean_wall_seconds;
             seconds s.mean_cpu_seconds;
             Printf.sprintf "< %.2fs" s.threshold_seconds;
             (if Float.is_nan s.fraction_under then "n/a"
              else Printf.sprintf "%.0f%%" (100.0 *. s.fraction_under));
             Printf.sprintf "%d/%d" s.queries_measured s.queries_total;
             string_of_int s.zero_estimate_runs;
           ])
         summaries)
    ()
