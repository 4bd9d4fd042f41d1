module Obs = Repro_obs.Obs

type spec = {
  design : float array array;
  target : float array;
  mass_coefficients : float array;
  mass : float;
}

type outcome = {
  weights : float array;
  residual : float;
}

type error = Infeasible | Unbounded | Aborted of string

let error_to_string = function
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Aborted reason -> "aborted: " ^ reason

let fit_with ?(obs = Obs.null) ~columns:n ~design ~target ~mass_coefficients
    ~mass k =
  if Array.length mass_coefficients < n then
    invalid_arg "L1_fit.fit_with: fewer mass coefficients than columns";
  let m = Array.length target in
  (* Variables: r_0..r_{n-1}, then t_0..t_{m-1}. Rows: the mass equality,
     then per observation i the pair
       upper i: design_i . r - t_i <= target_i
       lower i: design_i . r + t_i >= target_i
     The lower row copies the design row the upper row just received. *)
  let rows = 1 + (2 * m) in
  let relations =
    Array.init rows (fun r ->
        if r = 0 then Simplex.Eq
        else if r land 1 = 1 then Simplex.Le
        else Simplex.Ge)
  in
  let rhs = Array.make rows mass in
  for i = 0 to m - 1 do
    rhs.((2 * i) + 1) <- target.(i);
    rhs.((2 * i) + 2) <- target.(i)
  done;
  let upper = ref 0 in
  let row r tab off =
    if r = 0 then Array.blit mass_coefficients 0 tab off n
    else begin
      let i = (r - 1) / 2 in
      if r land 1 = 1 then begin
        design i tab off;
        upper := off;
        tab.(off + n + i) <- -1.0
      end
      else begin
        Array.blit tab !upper tab off n;
        tab.(off + n + i) <- 1.0
      end
    end
  in
  Simplex.solve_with ~obs ~n:(n + m) ~relations ~rhs
    ~objective:(fun costs -> Array.fill costs n m 1.0)
    ~row
    (function
      | Simplex.Optimal { objective_value; solution } ->
          Obs.observe obs "lp.l1.residual" objective_value;
          k (Ok { weights = solution; residual = objective_value })
      | Simplex.Infeasible -> k (Error Infeasible)
      | Simplex.Unbounded -> k (Error Unbounded)
      | Simplex.Failed reason -> k (Error (Aborted reason)))

let fit ?obs spec =
  let m = Array.length spec.design in
  if Array.length spec.target <> m then
    invalid_arg "L1_fit.fit: target length differs from design rows";
  let n = Array.length spec.mass_coefficients in
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "L1_fit.fit: design row width differs from mass coefficients")
    spec.design;
  fit_with ?obs ~columns:n
    ~design:(fun i tab off -> Array.blit spec.design.(i) 0 tab off n)
    ~target:spec.target ~mass_coefficients:spec.mass_coefficients
    ~mass:spec.mass
    (Result.map (fun outcome ->
         { outcome with weights = Array.sub outcome.weights 0 n }))
