open Repro_relation
module Clock = Repro_util.Clock
module Obs = Repro_obs.Obs

type query = {
  q_id : string;
  q_line : int;
  q_left : Predicate.t;
  q_right : Predicate.t;
}

let query_id i = Printf.sprintf "q%04d" i

(* One query per line: "<left predicate> ;; <right predicate>". An empty
   side means no selection; '#' lines and blank lines are skipped. Query
   ids number the surviving queries in file order, starting at 0. *)
let parse_queries contents =
  let ( let* ) = Result.bind in
  let parse_side ~line what s =
    let s = String.trim s in
    if s = "" then Ok Predicate.True
    else
      Result.map_error
        (Printf.sprintf "line %d, %s predicate: %s" line what)
        (Predicate_parser.parse s)
  in
  let lines = String.split_on_char '\n' contents in
  let* rev, _ =
    List.fold_left
      (fun acc (line_number, raw) ->
        let* rev, i = acc in
        let s = String.trim raw in
        if s = "" || s.[0] = '#' then Ok (rev, i)
        else
          let left, right =
            match String.index_opt s ';' with
            | Some j
              when j + 1 < String.length s && s.[j + 1] = ';' ->
                ( String.sub s 0 j,
                  String.sub s (j + 2) (String.length s - j - 2) )
            | _ -> (s, "")
          in
          let* q_left = parse_side ~line:line_number "left" left in
          let* q_right = parse_side ~line:line_number "right" right in
          Ok
            ( { q_id = query_id i; q_line = line_number; q_left; q_right }
              :: rev,
              i + 1 ))
      (Ok ([], 0))
      (List.mapi (fun i raw -> (i + 1, raw)) lines)
  in
  Ok (List.rev rev)

type result_row = {
  b_id : string;
  b_estimate : float;
  b_wall_seconds : float;  (** online-only: the estimate call *)
  b_cpu_seconds : float;
}

let total_online_wall rows =
  List.fold_left (fun acc r -> acc +. r.b_wall_seconds) 0.0 rows

(* Answer every query against one already-loaded synopsis; only the online
   phase is timed, per query. [load_wall_seconds] (the one-off store load /
   synopsis draw) is amortised over the batch in the provenance records, so
   the artifact carries the full offline/online split without pretending
   the load happened once per query. *)
let run ?(obs = Obs.null) ?(prov = Provenance.null) ?(clock = Clock.wall)
    ~store ~key ~load_wall_seconds queries =
  let n = List.length queries in
  let amortised_offline =
    if n = 0 then Float.nan else load_wall_seconds /. float_of_int n
  in
  let info = Csdl.Store.info store key in
  let variant, theta =
    match info with
    | Some i -> (i.Csdl.Store.i_variant, i.Csdl.Store.i_theta)
    | None -> ("?", Float.nan)
  in
  let rows =
    List.map
      (fun q ->
        let estimate, span =
          Clock.time ~wall_clock:clock (fun () ->
              match
                Csdl.Store.estimate ~obs ~pred_a:q.q_left ~pred_b:q.q_right
                  store ~key
              with
              | v -> v
              | exception Failure reason ->
                  failwith
                    (Printf.sprintf "line %d (%s): %s" q.q_line q.q_id reason))
        in
        Provenance.add prov
          {
            Provenance.empty with
            Provenance.experiment = "batch";
            query = q.q_id;
            variant;
            theta;
            jvd = Float.nan;
            sample_tuples = Float.nan;
            truth = Float.nan;
            qerror = Float.nan;
            estimate;
            rung = "";
            downgrades = 0;
            runs = 1;
            zero_runs = (if estimate = 0.0 then 1 else 0);
            wall_seconds = span.Clock.wall_seconds;
            cpu_seconds = span.Clock.cpu_seconds;
            offline_wall_seconds = amortised_offline;
          };
        {
          b_id = q.q_id;
          b_estimate = estimate;
          b_wall_seconds = span.Clock.wall_seconds;
          b_cpu_seconds = span.Clock.cpu_seconds;
        })
      queries
  in
  (* One aggregate record per batch invocation. Per-query walls are
     microseconds — below the diff's clock-noise floor — so the regression
     gate needs the whole-batch online total in a record of its own to
     bound the hot path's wall clock (see [Provenance.online_experiment]). *)
  if n > 0 then
    Provenance.add prov
      {
        Provenance.empty with
        Provenance.experiment = Provenance.online_experiment;
        query = "total";
        variant;
        theta;
        jvd = Float.nan;
        sample_tuples = Float.nan;
        truth = Float.nan;
        qerror = Float.nan;
        estimate = Float.nan;
        rung = "";
        downgrades = 0;
        runs = n;
        zero_runs =
          List.fold_left
            (fun acc r -> acc + if r.b_estimate = 0.0 then 1 else 0)
            0 rows;
        wall_seconds = total_online_wall rows;
        cpu_seconds =
          List.fold_left (fun acc r -> acc +. r.b_cpu_seconds) 0.0 rows;
        offline_wall_seconds = load_wall_seconds;
      };
  rows
