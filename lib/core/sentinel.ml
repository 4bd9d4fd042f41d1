(* Accuracy drift sentinels.

   A sentinel is a query with its exact answer recorded against the base
   tables at synopsis-build time. Replaying it against the synopsis later
   measures how far estimation accuracy has drifted — e.g. after delta
   maintenance mutated the data under a live server. Sentinels are pure
   data (predicate text + truth) so they persist in the synopsis store
   and survive a reload on a process that never saw the base tables.

   Seeding is a pure function of the profile: the unfiltered join size,
   plus one half-range predicate per side at the median shared join
   value. Same tables => same profile => byte-identical sentinels, which
   the shard smoke test's delta-vs-rebuild store comparison relies on. *)

open Repro_relation

type t = {
  left_pred : string;
  right_pred : string;
  truth : float;
  baseline : float;
}

let predicates s =
  let parse = function
    | "" -> Ok None
    | txt -> (
        match Predicate_parser.parse txt with
        | Ok p -> Ok (Some p)
        | Error e -> Error e)
  in
  match (parse s.left_pred, parse s.right_pred) with
  | Ok a, Ok b -> Some (a, b)
  | _ -> None

(* Whether [p] answers alike for every row of a group of [column]. Group
   v's rows hold values equal to v under [Value.Tbl]'s equality: one
   constructor, and floats equal under [Float.equal], which compare alike
   against every constant. Seeded sentinels ([column <= median])
   qualify. *)
let rec per_group column (p : Predicate.t) =
  match p with
  | True | False -> true
  | Compare (_, c, _) | Like_prefix (c, _) | Like_contains (c, _) ->
      String.equal c column
  | And (a, b) | Or (a, b) -> per_group column a && per_group column b
  | Not a -> per_group column a

(* Exact filtered join size over the base tables:
   sum over shared v of |{rows of A in group v matching pred_a}|
                      * |{rows of B in group v matching pred_b}|.
   A predicate that [per_group] admits is evaluated once per group, on its
   first row; any other is evaluated on every row. *)
let filtered_truth (profile : Profile.t) ~pred_a ~pred_b =
  let side_counter (side : Profile.side) pred =
    let groups = side.Profile.groups and table = side.Profile.table in
    match pred with
    | None ->
        fun v ->
          (match Value.Tbl.find_opt groups v with
          | Some rows -> Array.length rows
          | None -> 0)
    | Some p when per_group side.Profile.column p ->
        let keep = Predicate.compile p (Table.schema table) in
        fun v ->
          (match Value.Tbl.find_opt groups v with
          | Some rows when keep (Table.row table rows.(0)) -> Array.length rows
          | Some _ | None -> 0)
    | Some p ->
        let keep = Predicate.compile p (Table.schema table) in
        fun v ->
          (match Value.Tbl.find_opt groups v with
          | None -> 0
          | Some rows ->
              Array.fold_left
                (fun acc r -> if keep (Table.row table r) then acc + 1 else acc)
                0 rows)
  in
  let ca = side_counter profile.Profile.a pred_a in
  let cb = side_counter profile.Profile.b pred_b in
  Array.fold_left
    (fun acc v -> acc +. float_of_int (ca v * cb v))
    0.0 profile.Profile.shared_values

(* A candidate predicate is kept only if its SQL rendering parses back to
   the same tree — sentinels must survive the store round-trip as text.
   Hostile column names (dashes, all digits) fail here and the sentinel
   is simply not seeded. *)
let round_trips p =
  match Predicate_parser.parse (Predicate.to_string p) with
  | Ok q -> q = p
  | Error _ -> false

(* Replay a sentinel against a flat synopsis: estimate the stored query
   and return the q-error versus the recorded truth. Stored predicates
   are user-facing; [swapped] flips them into sampler orientation. An
   unparseable sentinel or a hard estimator fault yields [None] — a
   sentinel can never take a caller down. *)
let replay flat ~swapped s =
  match predicates s with
  | None -> None
  | Some (pa, pb) -> (
      let pred_a, pred_b = if swapped then (pb, pa) else (pa, pb) in
      match Estimate.(value (run_checked_flat ?pred_a ?pred_b flat)) with
      | Ok estimate -> Some (Repro_stats.Qerror.compute ~truth:s.truth ~estimate)
      | Error _ -> None)

(* The baseline is what makes the drift signal relative: a synopsis can
   legitimately estimate a selective sentinel with a large q-error at
   build time (small sample, skewed filter), and that is not drift.
   Recording the build-time q-error lets the server trip only when
   accuracy *worsens* relative to it. Replay is deterministic over the
   flat synopsis, so a delta-maintained store (whose synopsis is
   bit-identical to a fresh rebuild) records bit-identical baselines.
   The baseline is recorded honestly, infinity included: a synopsis that
   answers 0 for a non-empty join (a 0-tuple sample on tiny data) scores
   inf at build time, and clamping that to 1.0 would make its own fresh
   replay read as infinitely worse. *)
let with_baselines flat ~swapped sentinels =
  List.map
    (fun s ->
      let baseline =
        match replay flat ~swapped s with
        | Some q when not (Float.is_nan q) -> Float.max 1.0 q
        | _ -> 1.0
      in
      { s with baseline })
    sentinels

(* Equality first: a replay that reproduces its baseline — inf = inf
   included, where the ratio would be NaN — has not worsened at all. *)
let worsened s q = if q = s.baseline then 1.0 else q /. Float.max 1.0 s.baseline

let seed (profile : Profile.t) =
  let unfiltered =
    {
      left_pred = "";
      right_pred = "";
      truth = float_of_int (Profile.true_join_size profile);
      baseline = 1.0;
    }
  in
  (* median of the Int shared join values, in Value.compare order — a
     half-range predicate there filters roughly half the join mass *)
  let ints =
    Array.to_list profile.Profile.shared_values
    |> List.filter (function Value.Int _ -> true | _ -> false)
    |> List.sort Value.compare
  in
  match ints with
  | [] -> [ unfiltered ]
  | _ ->
      let median = List.nth ints (List.length ints / 2) in
      let filtered column ~on_left =
        let p = Predicate.Compare (Predicate.Le, column, median) in
        if not (round_trips p) then None
        else
          let pred_a = if on_left then Some p else None in
          let pred_b = if on_left then None else Some p in
          Some
            {
              left_pred = (if on_left then Predicate.to_string p else "");
              right_pred = (if on_left then "" else Predicate.to_string p);
              truth = filtered_truth profile ~pred_a ~pred_b;
              baseline = 1.0;
            }
      in
      unfiltered
      :: List.filter_map Fun.id
           [
             filtered profile.Profile.a.Profile.column ~on_left:true;
             filtered profile.Profile.b.Profile.column ~on_left:false;
           ]
