(* Reference oracle for the discrete-learning / LP kernel: Algorithm 1 as
   it stood before the flat-tableau rewrite, kept verbatim (list-built
   grid, [Array.map] design rows, constraint-row L1 fit, 2-D-tableau
   simplex, [Weighted.reweight |> median] per count class, with its own
   copy of [Weighted]). Only the type definitions are re-exported from the
   library so results compare directly. The library kernel must match it bit for bit. *)

[@@@ocaml.warning "-32"]

module Simplex = struct
  module Obs = Repro_obs.Obs

  type relation = Repro_lp.Simplex.relation = Le | Ge | Eq

  type constraint_row = Repro_lp.Simplex.constraint_row = {
    coefficients : float array;
    relation : relation;
    rhs : float;
  }

  type problem = Repro_lp.Simplex.problem = {
    objective : float array;
    constraints : constraint_row list;
  }

  type result = Repro_lp.Simplex.result =
    | Optimal of { objective_value : float; solution : float array }
    | Infeasible
    | Unbounded
    | Failed of string

  (* Tableau layout: [tab] has [m] constraint rows and one objective row
     ([tab.(m)]), each of width [total_vars + 1]; the last column is the RHS.
     The objective row stores reduced costs negated so that "entering column"
     means a negative entry, and [tab.(m).(total_vars)] holds the negated
     objective value. [basis.(i)] is the variable basic in row [i]. *)

  type tableau = {
    tab : float array array;
    basis : int array;
    m : int;
    total_vars : int;
  }

  let pivot t ~row ~col =
    let { tab; basis; m; total_vars } = t in
    let pivot_value = tab.(row).(col) in
    let prow = tab.(row) in
    for j = 0 to total_vars do
      prow.(j) <- prow.(j) /. pivot_value
    done;
    for i = 0 to m do
      if i <> row then begin
        let factor = tab.(i).(col) in
        if factor <> 0.0 then begin
          let irow = tab.(i) in
          for j = 0 to total_vars do
            irow.(j) <- irow.(j) -. (factor *. prow.(j))
          done
        end
      end
    done;
    basis.(row) <- col

  (* One simplex phase on an already-feasible tableau. [allowed j] masks
     columns that may enter (used to keep artificials out in phase 2).
     [fuel] is the absolute iteration budget shared across phases: every
     pivot decrements it, and exhaustion aborts the solve rather than
     spinning on a cycling or numerically-poisoned tableau.
     Returns [`Optimal], [`Unbounded] or [`Failed]. *)
  let run_phase ~epsilon ~allowed ~fuel t =
    let { tab; m; total_vars; _ } = t in
    let obj = tab.(m) in
    let stall_limit = 64 * (m + total_vars) in
    let iterations = ref 0 in
    let choose_entering_dantzig () =
      let best = ref (-1) and best_value = ref (-.epsilon) in
      for j = 0 to total_vars - 1 do
        if allowed j && obj.(j) < !best_value then begin
          best := j;
          best_value := obj.(j)
        end
      done;
      !best
    in
    let choose_entering_bland () =
      let rec find j =
        if j >= total_vars then -1
        else if allowed j && obj.(j) < -.epsilon then j
        else find (j + 1)
      in
      find 0
    in
    let choose_leaving col =
      (* Min-ratio test; ties broken by smallest basis variable (Bland). *)
      let best = ref (-1) and best_ratio = ref Float.infinity in
      for i = 0 to m - 1 do
        let a = tab.(i).(col) in
        if a > epsilon then begin
          let ratio = tab.(i).(total_vars) /. a in
          if
            ratio < !best_ratio -. epsilon
            || (ratio < !best_ratio +. epsilon
               && (!best = -1 || t.basis.(i) < t.basis.(!best)))
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
          if Float.is_finite obj.(total_vars) then `Optimal
          else `Failed "non-finite objective value"
        else
          match choose_leaving entering with
          | -1 -> `Unbounded
          | row ->
              let pv = tab.(row).(entering) in
              if not (Float.is_finite pv) || pv = 0.0 then
                `Failed "non-finite or zero pivot"
              else begin
                pivot t ~row ~col:entering;
                if Float.is_finite obj.(total_vars) then loop ()
                else `Failed "tableau diverged to non-finite values"
              end
      end
    in
    loop ()

  let finite_inputs problem =
    Array.for_all Float.is_finite problem.objective
    && List.for_all
         (fun row ->
           Float.is_finite row.rhs
           && Array.for_all Float.is_finite row.coefficients)
         problem.constraints

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

  let solve ?(obs = Obs.null) ?(epsilon = 1e-9) ?max_iterations problem =
    let n = Array.length problem.objective in
    let constraints = Array.of_list problem.constraints in
    let m = Array.length constraints in
    Array.iter
      (fun row ->
        if Array.length row.coefficients <> n then
          invalid_arg "Simplex.solve: coefficient width mismatch")
      constraints;
    if not (finite_inputs problem) then
      record_solve obs ~initial_fuel:0 ~fuel:(ref 0)
        (Failed "non-finite objective, coefficient or rhs")
    else begin
    (* Absolute pivot budget across both phases. The default leaves the
       Dantzig->Bland stall switch (64 * (m + total_vars) iterations per
       phase) ample room while still bounding a pathological tableau. *)
    let default_fuel m total_vars = 1000 + (256 * (m + total_vars)) in
    (* Normalise RHS signs so every row can host an artificial if needed. *)
    let rows =
      Array.map
        (fun row ->
          if row.rhs < 0.0 then
            {
              coefficients = Array.map (fun x -> -.x) row.coefficients;
              rhs = -.row.rhs;
              relation =
                (match row.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
            }
          else row)
        constraints
    in
    (* Column layout: structural | slack/surplus | artificial | RHS. *)
    let slack_count =
      Array.fold_left
        (fun acc row -> match row.relation with Le | Ge -> acc + 1 | Eq -> acc)
        0 rows
    in
    let artificial_count =
      Array.fold_left
        (fun acc row -> match row.relation with Le -> acc | Ge | Eq -> acc + 1)
        0 rows
    in
    let total_vars = n + slack_count + artificial_count in
    let fuel =
      ref
        (match max_iterations with
        | Some cap -> max 1 cap
        | None -> default_fuel m total_vars)
    in
    let initial_fuel = !fuel in
    let tab = Array.make_matrix (m + 1) (total_vars + 1) 0.0 in
    let basis = Array.make m (-1) in
    let next_slack = ref n in
    let next_artificial = ref (n + slack_count) in
    Array.iteri
      (fun i row ->
        Array.blit row.coefficients 0 tab.(i) 0 n;
        tab.(i).(total_vars) <- row.rhs;
        (match row.relation with
        | Le ->
            tab.(i).(!next_slack) <- 1.0;
            basis.(i) <- !next_slack;
            incr next_slack
        | Ge ->
            tab.(i).(!next_slack) <- -1.0;
            incr next_slack;
            tab.(i).(!next_artificial) <- 1.0;
            basis.(i) <- !next_artificial;
            incr next_artificial
        | Eq ->
            tab.(i).(!next_artificial) <- 1.0;
            basis.(i) <- !next_artificial;
            incr next_artificial))
      rows;
    let t = { tab; basis; m; total_vars } in
    let is_artificial j = j >= n + slack_count in
    (* Phase 1: minimise the sum of artificials. Objective row = minus the sum
       of rows that contain a basic artificial (price-out). *)
    let phase1_needed = artificial_count > 0 in
    let phase1 =
      if not phase1_needed then `Feasible
      else begin
        let obj = tab.(m) in
        Array.fill obj 0 (total_vars + 1) 0.0;
        for j = n + slack_count to total_vars - 1 do
          obj.(j) <- 1.0 (* cost of each artificial *)
        done;
        for i = 0 to m - 1 do
          if is_artificial basis.(i) then
            for j = 0 to total_vars do
              obj.(j) <- obj.(j) -. tab.(i).(j)
            done
        done;
        match run_phase ~epsilon ~allowed:(fun _ -> true) ~fuel t with
        | `Unbounded ->
            (* The phase-1 objective is bounded below by 0; reaching this arm
               means the tableau is numerically poisoned, not unbounded. *)
            `Failed "phase 1 reported unbounded"
        | `Failed reason -> `Failed ("phase 1: " ^ reason)
        | `Optimal ->
            let infeasibility = -.tab.(m).(total_vars) in
            if infeasibility > 1e-6 then `Infeasible
            else begin
              (* Drive any artificial still basic (at value 0) out of the basis. *)
              for i = 0 to m - 1 do
                if is_artificial basis.(i) then begin
                  let found = ref (-1) in
                  for j = 0 to n + slack_count - 1 do
                    if !found = -1 && Float.abs tab.(i).(j) > epsilon then found := j
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
        let obj = tab.(m) in
        Array.fill obj 0 (total_vars + 1) 0.0;
        Array.blit problem.objective 0 obj 0 n;
        for i = 0 to m - 1 do
          let b = basis.(i) in
          if b < n && obj.(b) <> 0.0 then begin
            let factor = obj.(b) in
            for j = 0 to total_vars do
              obj.(j) <- obj.(j) -. (factor *. tab.(i).(j))
            done
          end
        done;
        match run_phase ~epsilon ~allowed:(fun j -> not (is_artificial j)) ~fuel t with
        | `Unbounded -> Unbounded
        | `Failed reason -> Failed ("phase 2: " ^ reason)
        | `Optimal ->
            let solution = Array.make n 0.0 in
            let corrupt = ref false in
            for i = 0 to m - 1 do
              if basis.(i) < n then begin
                let x = tab.(i).(total_vars) in
                if not (Float.is_finite x) then corrupt := true;
                solution.(basis.(i)) <- x
              end
            done;
            let objective_value = -.tab.(m).(total_vars) in
            if !corrupt || not (Float.is_finite objective_value) then
              Failed "non-finite solution"
            else Optimal { objective_value; solution }
      end)
    end
end

module L1_fit = struct
  module Obs = Repro_obs.Obs

  type spec = Repro_lp.L1_fit.spec = {
    design : float array array;
    target : float array;
    mass_coefficients : float array;
    mass : float;
  }

  type outcome = Repro_lp.L1_fit.outcome = {
    weights : float array;
    residual : float;
  }

  type error = Repro_lp.L1_fit.error = Infeasible | Unbounded | Aborted of string

  let error_to_string = function
    | Infeasible -> "infeasible"
    | Unbounded -> "unbounded"
    | Aborted reason -> "aborted: " ^ reason

  let fit ?(obs = Obs.null) spec =
    let m = Array.length spec.design in
    if Array.length spec.target <> m then
      invalid_arg "L1_fit.fit: target length differs from design rows";
    let n = Array.length spec.mass_coefficients in
    Array.iter
      (fun row ->
        if Array.length row <> n then
          invalid_arg "L1_fit.fit: design row width differs from mass coefficients")
      spec.design;
    (* Variables: r_0..r_{n-1}, then t_0..t_{m-1}. *)
    let total = n + m in
    let objective = Array.make total 0.0 in
    for i = 0 to m - 1 do
      objective.(n + i) <- 1.0
    done;
    let upper i =
      (* design_i . r - t_i <= target_i *)
      let coefficients = Array.make total 0.0 in
      Array.blit spec.design.(i) 0 coefficients 0 n;
      coefficients.(n + i) <- -1.0;
      { Simplex.coefficients; relation = Simplex.Le; rhs = spec.target.(i) }
    in
    let lower i =
      (* design_i . r + t_i >= target_i *)
      let coefficients = Array.make total 0.0 in
      Array.blit spec.design.(i) 0 coefficients 0 n;
      coefficients.(n + i) <- 1.0;
      { Simplex.coefficients; relation = Simplex.Ge; rhs = spec.target.(i) }
    in
    let mass_row =
      let coefficients = Array.make total 0.0 in
      Array.blit spec.mass_coefficients 0 coefficients 0 n;
      { Simplex.coefficients; relation = Simplex.Eq; rhs = spec.mass }
    in
    let constraints =
      mass_row :: List.concat_map (fun i -> [ upper i; lower i ]) (List.init m Fun.id)
    in
    match Simplex.solve ~obs { objective; constraints } with
    | Simplex.Optimal { objective_value; solution } ->
        Obs.observe obs "lp.l1.residual" objective_value;
        Ok { weights = Array.sub solution 0 n; residual = objective_value }
    | Simplex.Infeasible -> Error Infeasible
    | Simplex.Unbounded -> Error Unbounded
    | Simplex.Failed reason -> Error (Aborted reason)
end

module Weighted = struct
  (* Entries are kept sorted by value with strictly positive weights, which
     makes the weighted median a single prefix-sum scan. *)

  type t = { values : float array; weights : float array; total : float }

  let of_entries entries =
    let entries = List.filter (fun (_, w) -> w > 0.0) entries in
    let arr = Array.of_list entries in
    Array.sort (fun (a, _) (b, _) -> compare a b) arr;
    let values = Array.map fst arr in
    let weights = Array.map snd arr in
    let total = Array.fold_left ( +. ) 0.0 weights in
    { values; weights; total }

  let of_pairs pairs =
    List.iter
      (fun (_, w) ->
        if w < 0.0 || Float.is_nan w then invalid_arg "Weighted.of_pairs: negative weight")
      pairs;
    of_entries pairs

  let of_arrays ~values ~weights =
    let n = Array.length values in
    if Array.length weights <> n then invalid_arg "Weighted.of_arrays: length mismatch";
    let pairs = ref [] in
    for i = n - 1 downto 0 do
      if weights.(i) < 0.0 || Float.is_nan weights.(i) then
        invalid_arg "Weighted.of_arrays: negative weight";
      pairs := (values.(i), weights.(i)) :: !pairs
    done;
    of_entries !pairs

  let is_empty t = Array.length t.values = 0
  let total_weight t = t.total
  let size t = Array.length t.values

  let reweight f t =
    let pairs = ref [] in
    for i = Array.length t.values - 1 downto 0 do
      let w = f t.values.(i) t.weights.(i) in
      if w > 0.0 then pairs := (t.values.(i), w) :: !pairs
    done;
    of_entries !pairs

  let median t =
    if is_empty t then invalid_arg "Weighted.median: empty multiset";
    let half = t.total /. 2.0 in
    let n = Array.length t.values in
    let rec scan i acc =
      let acc = acc +. t.weights.(i) in
      if acc >= half || i = n - 1 then t.values.(i) else scan (i + 1) acc
    in
    scan 0 0.0

  let fold f t init =
    let acc = ref init in
    for i = 0 to Array.length t.values - 1 do
      acc := f t.values.(i) t.weights.(i) !acc
    done;
    !acc

  let mean t =
    if is_empty t then invalid_arg "Weighted.mean: empty multiset";
    fold (fun v w acc -> acc +. (v *. w)) t 0.0 /. t.total
end

module Discrete_learning = struct
  module Math_ex = Repro_util.Math_ex
  module Fingerprint = Repro_stats.Fingerprint
  module Obs = Repro_obs.Obs

  type config = Csdl.Discrete_learning.config = {
    d : float;
    e : float;
    linear_grid_points : int;
    geometric_ratio : float;
  }

  let default_config =
    { d = 0.08; e = 0.05; linear_grid_points = 400; geometric_ratio = 1.05 }

  type t = {
    n : float;
    histogram : Weighted.t;
    empirical_cutoff : float;  (* ln^2 n: counts at or above use j/n *)
    cache : (int, float) Hashtbl.t;
  }

  let sample_size t = t.n
  let histogram t = t.histogram
  let estimated_distinct t = Weighted.total_weight t.histogram

  (* The probability grid X = {1/n^2, 2/n^2, ...} up to (n^D + n^E)/n, with
     the tail geometrically coarsened to bound the LP size. *)
  let build_grid config ~n ~x_max =
    let step = 1.0 /. (n *. n) in
    if x_max < step then [| x_max |]
    else begin
      let grid = ref [] in
      let count = ref 0 in
      let x = ref step in
      while !x <= x_max && !count < config.linear_grid_points do
        grid := !x :: !grid;
        incr count;
        x := !x +. step
      done;
      (* geometric regime *)
      while !x <= x_max do
        grid := !x :: !grid;
        x := !x *. config.geometric_ratio
      done;
      (* make sure the top of the range is represented *)
      (match !grid with
      | top :: _ when top < x_max *. 0.99 -> grid := x_max :: !grid
      | [] -> grid := [ x_max ]
      | _ -> ());
      Array.of_list (List.rev !grid)
    end

  let degenerate n =
    {
      n;
      histogram = Weighted.of_pairs [];
      empirical_cutoff = 0.0;
      cache = Hashtbl.create 4;
    }

  let config_valid config =
    0.0 < config.d /. 2.0 && config.d /. 2.0 < config.e && config.e < config.d
    && config.d < 0.1

  (* Algorithm 1 on a validated, non-empty fingerprint. When the LP layer
     fails, returns the empirical-fallback shape (count classes use j/n)
     together with the typed LP error so checked callers can refuse it. *)
  let learn_core ?(obs = Obs.null) config fingerprint n =
    Obs.Span.with_ obs ~name:"dl.learn" @@ fun () ->
    Obs.observe obs "dl.virtual_sample.size" n;
    let n_d = Float.pow n config.d and n_e = Float.pow n config.e in
    let lp_max_i = max 1 (int_of_float (Float.floor n_d)) in
    let heavy_threshold = n_d +. (2.0 *. n_e) in
    (* Heavy counts keep their empirical probability (lines 6, 12). *)
    let heavy_entries =
      Fingerprint.fold
        (fun i mass acc ->
          if float_of_int i > heavy_threshold then
            (float_of_int i /. n, mass) :: acc
          else acc)
        fingerprint []
    in
    let heavy_mass =
      List.fold_left (fun acc (x, mass) -> acc +. (x *. mass)) 0.0 heavy_entries
    in
    let mass = Float.max 0.0 (1.0 -. heavy_mass) in
    let x_max = (n_d +. n_e) /. n in
    let grid = build_grid config ~n ~x_max in
    let design =
      Array.init lp_max_i (fun row ->
          let i = row + 1 in
          Array.map (fun x -> Math_ex.poisson_pmf (n *. x) i) grid)
    in
    let target =
      Array.init lp_max_i (fun row -> Fingerprint.get fingerprint (row + 1))
    in
    let lp_entries, lp_error =
      match
        L1_fit.fit ~obs
          { design; target; mass_coefficients = Array.copy grid; mass }
      with
      | Ok { weights; _ } ->
          let entries = ref [] in
          Array.iteri
            (fun j w -> if w > 0.0 then entries := (grid.(j), w) :: !entries)
            weights;
          (!entries, None)
      | Error e ->
          (* Cannot happen for a non-empty grid with mass >= 0 and finite
             counts, but fall back to an empty shape rather than crash:
             count classes then use their empirical probability. *)
          Obs.count obs "dl.lp.failures" 1;
          ([], Some e)
    in
    let histogram = Weighted.of_pairs (lp_entries @ heavy_entries) in
    let log_n = log n in
    let empirical_cutoff = if log_n <= 0.0 then 0.0 else log_n *. log_n in
    ({ n; histogram; empirical_cutoff; cache = Hashtbl.create 16 }, lp_error)

  let learn ?(obs = Obs.null) ?(config = default_config) counts =
    if not (config_valid config) then
      invalid_arg "Discrete_learning.learn: need 0 < D/2 < E < D < 0.1";
    let fingerprint =
      Fingerprint.of_float_counts
        (Seq.filter Float.is_finite (Array.to_seq counts))
    in
    let n = Fingerprint.sample_size fingerprint in
    if n <= 0.0 then degenerate 0.0
    else fst (learn_core ~obs config fingerprint n)

  let learn_checked ?(obs = Obs.null) ?(config = default_config) counts =
    if not (config_valid config) then
      Error (Csdl.Fault.Bad_input "discrete learning config: need 0 < D/2 < E < D < 0.1")
    else
      match Array.find_opt (fun c -> not (Float.is_finite c)) counts with
      | Some bad ->
          Error (Csdl.Fault.Numeric { what = "discrete-learning count"; value = bad })
      | None ->
          let fingerprint = Fingerprint.of_float_counts (Array.to_seq counts) in
          let n = Fingerprint.sample_size fingerprint in
          if n <= 0.0 then
            Error (Csdl.Fault.Bad_input "discrete learning: empty or all-zero counts")
          else begin
            match learn_core ~obs config fingerprint n with
            | t, None -> Ok t
            | _, Some lp_error -> Error (Csdl.Fault.of_l1_error lp_error)
          end

  let probability_of_count t j =
    if j <= 0.0 || t.n <= 0.0 then 0.0
    else
      let count_class = max 1 (int_of_float (Float.round j)) in
      match Hashtbl.find_opt t.cache count_class with
      | Some p -> p
      | None ->
          let empirical = float_of_int count_class /. t.n in
          let p =
            if float_of_int count_class >= t.empirical_cutoff then empirical
            else begin
              let weighted =
                Weighted.reweight
                  (fun x w -> w *. Math_ex.poisson_pmf (t.n *. x) count_class)
                  t.histogram
              in
              if Weighted.is_empty weighted || Weighted.total_weight weighted <= 0.0
              then empirical
              else Weighted.median weighted
            end
          in
          Hashtbl.add t.cache count_class p;
          p
end
