module Obs = Repro_obs.Obs
module Scratch = Repro_util.Scratch

type relation = Le | Ge | Eq

type constraint_row = {
  coefficients : float array;
  relation : relation;
  rhs : float;
}

type problem = {
  objective : float array;
  constraints : constraint_row list;
}

type result =
  | Optimal of { objective_value : float; solution : float array }
  | Infeasible
  | Unbounded
  | Failed of string

(* Tableau layout: [tab] is one row-major array of [m] constraint rows and
   one objective row (row [m]), each [w = total_vars + 1] cells wide; the
   last column is the RHS. Columns are structural [0, n) | slack/surplus |
   artificial. The objective row stores reduced costs negated so that
   "entering column" means a negative entry, and its RHS cell holds the
   negated objective value. [basis.(i)] is the variable basic in row [i];
   [costs] keeps the structural objective for phase 2.

   The arrays are one domain's buffers, reused across solves and grown to
   the largest solve seen: only the first [(m + 1) * w] cells of [tab], [m]
   of [basis] and [n] of [costs] and [solution] belong to the current one. *)
type tableau = {
  mutable tab : float array;
  mutable basis : int array;
  mutable costs : float array;
  mutable solution : float array;
  mutable m : int;
  mutable n : int;
  mutable slack_count : int;
  mutable total_vars : int;
}

let scratch =
  Scratch.make (fun () ->
      {
        tab = [||];
        basis = [||];
        costs = [||];
        solution = [||];
        m = 0;
        n = 0;
        slack_count = 0;
        total_vars = 0;
      })

let pivot t ~row ~col =
  let { tab; basis; m; total_vars; _ } = t in
  let w = total_vars + 1 in
  let p = row * w in
  let pivot_value = tab.(p + col) in
  for j = p to p + total_vars do
    tab.(j) <- tab.(j) /. pivot_value
  done;
  for i = 0 to m do
    if i <> row then begin
      let r = i * w in
      let factor = tab.(r + col) in
      if factor <> 0.0 then
        for j = 0 to total_vars do
          tab.(r + j) <- tab.(r + j) -. (factor *. tab.(p + j))
        done
    end
  done;
  basis.(row) <- col

(* One simplex phase on an already-feasible tableau. Only columns below
   [allowed] may enter (phase 2 keeps the artificials, which sit last, out).
   [fuel] is the absolute iteration budget shared across phases: every
   pivot decrements it, and exhaustion aborts the solve rather than
   spinning on a cycling or numerically-poisoned tableau.
   Returns [`Optimal], [`Unbounded] or [`Failed]. *)
let run_phase ~epsilon ~allowed ~fuel t =
  let { tab; basis; m; total_vars; _ } = t in
  let w = total_vars + 1 in
  let obj = m * w in
  let stall_limit = 64 * (m + total_vars) in
  let iterations = ref 0 in
  let choose_entering_dantzig () =
    let best = ref (-1) and best_value = ref (-.epsilon) in
    for j = 0 to allowed - 1 do
      if tab.(obj + j) < !best_value then begin
        best := j;
        best_value := tab.(obj + j)
      end
    done;
    !best
  in
  let choose_entering_bland () =
    let rec find j =
      if j >= allowed then -1
      else if tab.(obj + j) < -.epsilon then j
      else find (j + 1)
    in
    find 0
  in
  let choose_leaving col =
    (* Min-ratio test; ties broken by smallest basis variable (Bland). *)
    let best = ref (-1) and best_ratio = ref Float.infinity in
    for i = 0 to m - 1 do
      let a = tab.((i * w) + col) in
      if a > epsilon then begin
        let ratio = tab.((i * w) + total_vars) /. a in
        if
          ratio < !best_ratio -. epsilon
          || (ratio < !best_ratio +. epsilon
             && (!best = -1 || basis.(i) < basis.(!best)))
        then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best
  in
  let rec loop () =
    incr iterations;
    if !fuel <= 0 then `Failed "iteration cap exhausted"
    else begin
      decr fuel;
      let entering =
        if !iterations > stall_limit then choose_entering_bland ()
        else choose_entering_dantzig ()
      in
      if entering = -1 then
        if Float.is_finite tab.(obj + total_vars) then `Optimal
        else `Failed "non-finite objective value"
      else
        match choose_leaving entering with
        | -1 -> `Unbounded
        | row ->
            let pv = tab.((row * w) + entering) in
            if not (Float.is_finite pv) || pv = 0.0 then
              `Failed "non-finite or zero pivot"
            else begin
              pivot t ~row ~col:entering;
              if Float.is_finite tab.(obj + total_vars) then loop ()
              else `Failed "tableau diverged to non-finite values"
            end
    end
  in
  loop ()

let outcome_label = function
  | Optimal _ -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Failed _ -> "failed"

(* Metric side of a finished solve: pivot count (the fuel consumed across
   both phases), the outcome tally, and fuel exhaustion as its own
   counter so a cycling tableau is visible at a glance. *)
let record_solve obs ~initial_fuel ~fuel result =
  if Obs.is_live obs then begin
    Obs.observe obs "lp.simplex.iterations"
      (float_of_int (max 0 (initial_fuel - !fuel)));
    Obs.count obs
      ~labels:[ ("outcome", outcome_label result) ]
      "lp.simplex.solves" 1;
    match result with
    | Failed _ when !fuel <= 0 -> Obs.count obs "lp.simplex.fuel_exhausted" 1
    | _ -> ()
  end;
  result

(* The row loader: lays the problem out in [t], checks it is finite, and
   normalises RHS signs so every row can host an artificial if needed.
   All rows are written before any is normalised. Returns whether the
   inputs were finite. *)
let load t ~n ~relations ~rhs ~objective ~row =
  let m = Array.length relations in
  if Array.length rhs <> m then
    invalid_arg "Simplex.solve_with: rhs and relations differ in length";
  let relation i =
    if rhs.(i) < 0.0 then
      match relations.(i) with Le -> Ge | Ge -> Le | Eq -> Eq
    else relations.(i)
  in
  let slack_count = ref 0 and artificial_count = ref 0 in
  for i = 0 to m - 1 do
    match relation i with
    | Le -> incr slack_count
    | Ge ->
        incr slack_count;
        incr artificial_count
    | Eq -> incr artificial_count
  done;
  let slack_count = !slack_count in
  let total_vars = n + slack_count + !artificial_count in
  let w = total_vars + 1 in
  let tab = Scratch.grow t.tab ((m + 1) * w) 0.0 in
  Array.fill tab 0 ((m + 1) * w) 0.0;
  let basis = Scratch.grow t.basis m (-1) in
  Array.fill basis 0 m (-1);
  t.costs <- Scratch.grow t.costs n 0.0;
  Array.fill t.costs 0 n 0.0;
  t.tab <- tab;
  t.basis <- basis;
  t.m <- m;
  t.n <- n;
  t.slack_count <- slack_count;
  t.total_vars <- total_vars;
  objective t.costs;
  for i = 0 to m - 1 do
    row i tab (i * w)
  done;
  let finite = ref true in
  for j = 0 to n - 1 do
    if not (Float.is_finite t.costs.(j)) then finite := false
  done;
  for i = 0 to m - 1 do
    if not (Float.is_finite rhs.(i)) then finite := false;
    for j = i * w to (i * w) + n - 1 do
      if not (Float.is_finite tab.(j)) then finite := false
    done
  done;
  if !finite then begin
    let next_slack = ref n in
    let next_artificial = ref (n + slack_count) in
    for i = 0 to m - 1 do
      let r = i * w in
      if rhs.(i) < 0.0 then begin
        for j = r to r + n - 1 do
          tab.(j) <- -.tab.(j)
        done;
        tab.(r + total_vars) <- -.rhs.(i)
      end
      else tab.(r + total_vars) <- rhs.(i);
      match relation i with
      | Le ->
          tab.(r + !next_slack) <- 1.0;
          basis.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          tab.(r + !next_slack) <- -1.0;
          incr next_slack;
          tab.(r + !next_artificial) <- 1.0;
          basis.(i) <- !next_artificial;
          incr next_artificial
      | Eq ->
          tab.(r + !next_artificial) <- 1.0;
          basis.(i) <- !next_artificial;
          incr next_artificial
    done
  end;
  !finite

(* Two-phase simplex on the tableau [load] laid out. *)
let run ~obs ~epsilon ~max_iterations t =
  let { tab; basis; m; n; slack_count; total_vars; _ } = t in
  let w = total_vars + 1 in
  let obj = m * w in
  (* Absolute pivot budget across both phases. The default leaves the
     Dantzig->Bland stall switch (64 * (m + total_vars) iterations per
     phase) ample room while still bounding a pathological tableau. *)
  let fuel =
    ref
      (match max_iterations with
      | Some cap -> max 1 cap
      | None -> 1000 + (256 * (m + total_vars)))
  in
  let initial_fuel = !fuel in
  let is_artificial j = j >= n + slack_count in
  (* Phase 1: minimise the sum of artificials. Objective row = minus the sum
     of rows that contain a basic artificial (price-out). *)
  let phase1 =
    if total_vars = n + slack_count then `Feasible
    else begin
      Array.fill tab obj w 0.0;
      for j = n + slack_count to total_vars - 1 do
        tab.(obj + j) <- 1.0 (* cost of each artificial *)
      done;
      for i = 0 to m - 1 do
        if is_artificial basis.(i) then
          for j = 0 to total_vars do
            tab.(obj + j) <- tab.(obj + j) -. tab.((i * w) + j)
          done
      done;
      match run_phase ~epsilon ~allowed:total_vars ~fuel t with
      | `Unbounded ->
          (* The phase-1 objective is bounded below by 0; reaching this arm
             means the tableau is numerically poisoned, not unbounded. *)
          `Failed "phase 1 reported unbounded"
      | `Failed reason -> `Failed ("phase 1: " ^ reason)
      | `Optimal ->
          let infeasibility = -.tab.(obj + total_vars) in
          if infeasibility > 1e-6 then `Infeasible
          else begin
            (* Drive any artificial still basic (at value 0) out of the basis. *)
            for i = 0 to m - 1 do
              if is_artificial basis.(i) then begin
                let found = ref (-1) in
                for j = 0 to n + slack_count - 1 do
                  if !found = -1 && Float.abs tab.((i * w) + j) > epsilon then
                    found := j
                done;
                match !found with
                | -1 -> () (* redundant row: all-zero, harmless to keep *)
                | j -> pivot t ~row:i ~col:j
              end
            done;
            `Feasible
          end
    end
  in
  record_solve obs ~initial_fuel ~fuel
    (match phase1 with
    | `Infeasible -> Infeasible
    | `Failed reason -> Failed reason
    | `Feasible -> begin
        (* Phase 2: install the real objective, priced out against the basis. *)
        Array.fill tab obj w 0.0;
        Array.blit t.costs 0 tab obj n;
        for i = 0 to m - 1 do
          let b = basis.(i) in
          if b < n && tab.(obj + b) <> 0.0 then begin
            let factor = tab.(obj + b) in
            for j = 0 to total_vars do
              tab.(obj + j) <- tab.(obj + j) -. (factor *. tab.((i * w) + j))
            done
          end
        done;
        match run_phase ~epsilon ~allowed:(n + slack_count) ~fuel t with
        | `Unbounded -> Unbounded
        | `Failed reason -> Failed ("phase 2: " ^ reason)
        | `Optimal ->
            let solution = Scratch.grow t.solution n 0.0 in
            t.solution <- solution;
            Array.fill solution 0 n 0.0;
            let corrupt = ref false in
            for i = 0 to m - 1 do
              if basis.(i) < n then begin
                let x = tab.((i * w) + total_vars) in
                if not (Float.is_finite x) then corrupt := true;
                solution.(basis.(i)) <- x
              end
            done;
            let objective_value = -.tab.(obj + total_vars) in
            if !corrupt || not (Float.is_finite objective_value) then
              Failed "non-finite solution"
            else Optimal { objective_value; solution }
      end)

let solve_with ?(obs = Obs.null) ?(epsilon = 1e-9) ?max_iterations ~n
    ~relations ~rhs ~objective ~row k =
  Scratch.with_ scratch (fun t ->
      k
        (if load t ~n ~relations ~rhs ~objective ~row then
           run ~obs ~epsilon ~max_iterations t
         else
           record_solve obs ~initial_fuel:0 ~fuel:(ref 0)
             (Failed "non-finite objective, coefficient or rhs")))

let solve ?obs ?epsilon ?max_iterations problem =
  let n = Array.length problem.objective in
  let constraints = Array.of_list problem.constraints in
  Array.iter
    (fun row ->
      if Array.length row.coefficients <> n then
        invalid_arg "Simplex.solve: coefficient width mismatch")
    constraints;
  solve_with ?obs ?epsilon ?max_iterations ~n
    ~relations:(Array.map (fun row -> row.relation) constraints)
    ~rhs:(Array.map (fun row -> row.rhs) constraints)
    ~objective:(fun costs -> Array.blit problem.objective 0 costs 0 n)
    ~row:(fun i tab off -> Array.blit constraints.(i).coefficients 0 tab off n)
    (function
      | Optimal { objective_value; solution } ->
          Optimal { objective_value; solution = Array.sub solution 0 n }
      | (Infeasible | Unbounded | Failed _) as result -> result)
