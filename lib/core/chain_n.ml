open Repro_relation

type link_table = {
  table : Table.t;
  pk : string;
  fk : string option;
}

type tables = {
  links : link_table list;
  last : Table.t;
  last_fk : string;
}

let validate tables =
  (match tables.links with
  | [] -> invalid_arg "Chain_n: at least one link table required"
  | head :: rest ->
      (match head.fk with
      | Some _ -> invalid_arg "Chain_n: the leftmost table must have no fk"
      | None -> ());
      List.iter
        (fun link ->
          match link.fk with
          | None -> invalid_arg "Chain_n: only the leftmost table may omit fk"
          | Some _ -> ())
        rest);
  let check table column =
    ignore (Table.column_index table column : int)
  in
  List.iter
    (fun link ->
      check link.table link.pk;
      Option.iter (check link.table) link.fk)
    tables.links;
  check tables.last tables.last_fk

let length tables = List.length tables.links + 1

let rightmost_link tables =
  match List.rev tables.links with
  | [] -> invalid_arg "Chain_n: at least one link table required"
  | last_link :: _ -> last_link

let jvd tables =
  let link = rightmost_link tables in
  Join.jvd link.table link.pk tables.last tables.last_fk

(* one prepared level: its row groups by pk and the fk column index *)
type level = {
  link : link_table;
  groups : int array Value.Tbl.t;
  fk_index : int option;
}

type t = {
  spec : Spec.t;
  tables : tables;
  profile : Profile.t;
  resolved : Budget.t;
  levels : level list;  (* rightmost link first *)
}

(* a complete witness path: row indices, rightmost link first *)
type synopsis = {
  sample : Sample.t;
  paths : int array list Value.Tbl.t;
  n0 : float;
  prepared : t;
}

let prepare spec ~theta tables =
  validate tables;
  let link = rightmost_link tables in
  let profile =
    Profile.of_tables tables.last tables.last_fk link.table link.pk
  in
  let profile =
    {
      profile with
      Profile.total_rows =
        List.fold_left
          (fun acc l -> acc + Table.cardinality l.table)
          (Table.cardinality tables.last)
          tables.links;
    }
  in
  let resolved = Budget.resolve spec ~theta profile in
  let levels =
    List.rev_map
      (fun link ->
        {
          link;
          groups = Table.group_by link.table link.pk;
          fk_index = Option.map (Table.column_index link.table) link.fk;
        })
      tables.links
  in
  { spec; tables; profile; resolved; levels }

let prepare_opt ?threshold ~theta tables =
  prepare (Opt.spec_for ?threshold ~jvd:(jvd tables) ()) ~theta tables

(* enumerate complete witness paths for a join value, rightmost first *)
let rec paths_for levels v =
  match levels with
  | [] -> [ [||] ]
  | level :: deeper -> (
      match Value.Tbl.find_opt level.groups v with
      | None -> []
      | Some rows ->
          Array.to_list rows
          |> List.concat_map (fun row_index ->
                 let continue_with =
                   match level.fk_index with
                   | None -> [ [||] ] (* leftmost table: path ends here *)
                   | Some fk_index -> (
                       match (Table.row level.link.table row_index).(fk_index) with
                       | Value.Null -> []
                       | u -> paths_for deeper u)
                 in
                 List.map
                   (fun rest -> Array.append [| row_index |] rest)
                   continue_with))

let draw t prng =
  let sample = Sample.first_side ~base:(Synopsis.base_of_prng prng) ~profile:t.profile
      ~resolved:t.resolved () in
  let paths = Value.Tbl.create 256 in
  let n0 = ref 0.0 in
  Value.Tbl.iter
    (fun v (_ : Sample.entry) ->
      n0 := !n0 +. float_of_int (Profile.frequency t.profile.Profile.a v);
      match paths_for t.levels v with
      | [] -> ()
      | complete -> Value.Tbl.add paths v complete)
    sample.Sample.entries;
  { sample; paths; n0 = !n0; prepared = t }

let compile_opt table = function
  | Predicate.True -> fun (_ : Value.t array) -> true
  | p -> Predicate.compile p (Table.schema table)

let estimate ?dl_config ?(predicates = []) t synopsis =
  let k = length t.tables in
  let padded =
    List.init k (fun i ->
        match List.nth_opt predicates i with
        | Some p -> p
        | None -> Predicate.True)
  in
  let link_predicates = List.filteri (fun i _ -> i < k - 1) padded in
  let last_predicate = List.nth padded (k - 1) in
  (* per level (rightmost link first), the compiled predicate *)
  let level_pass =
    List.map2
      (fun level predicate -> compile_opt level.link.table predicate)
      t.levels
      (List.rev link_predicates)
  in
  let pass_last = compile_opt t.tables.last last_predicate in
  let sample = synopsis.sample in
  let total_tuples = Sample.total_tuples sample in
  if total_tuples = 0 then 0.0
  else begin
    let base_q = t.resolved.Budget.base_q in
    let filtered = Value.Tbl.create (Value.Tbl.length sample.Sample.entries) in
    let filtered_tuples = ref 0 in
    let virtual_counts = ref [] in
    Value.Tbl.iter
      (fun v (entry : Sample.entry) ->
        let count = Sample.filtered_count sample pass_last entry in
        let sentry = Sample.sentry_passes sample pass_last entry in
        Value.Tbl.add filtered v (count, sentry);
        filtered_tuples := !filtered_tuples + count + (if sentry then 1 else 0);
        if count > 0 && entry.Sample.q_v > 0.0 then begin
          let virtual_count = float_of_int count *. base_q /. entry.Sample.q_v in
          if virtual_count > 0.0 then
            virtual_counts := virtual_count :: !virtual_counts
        end)
      sample.Sample.entries;
    let selectivity =
      float_of_int !filtered_tuples /. float_of_int total_tuples
    in
    (* Virtual-sample population: the sentries sit outside the second-level
       draw (see Estimate.dl_estimate) and must not be scaled by x_v. *)
    let n0_virtual =
      if t.spec.Spec.sentry then
        Float.max 0.0 (synopsis.n0 -. float_of_int (Sample.sentry_count sample))
      else synopsis.n0
    in
    let n0_filtered = n0_virtual *. selectivity in
    let learned =
      match t.spec.Spec.method_ with
      | Spec.Discrete_learning ->
          Some
            (Discrete_learning.learn ?config:dl_config
               (Array.of_list !virtual_counts))
      | Spec.Scaling -> None
    in
    let sentry_spec = t.spec.Spec.sentry in
    let path_passes path =
      let ok = ref true in
      List.iteri
        (fun i pass ->
          if !ok then begin
            let level = List.nth t.levels i in
            if not (pass (Table.row level.link.table path.(i))) then ok := false
          end)
        level_pass;
      !ok
    in
    let total = ref 0.0 in
    Value.Tbl.iter
      (fun v complete_paths ->
        let entry = Value.Tbl.find sample.Sample.entries v in
        let count, sentry = Value.Tbl.find filtered v in
        let last_factor =
          match learned with
          | Some learned ->
              let x_v =
                if count = 0 || entry.Sample.q_v <= 0.0 then 0.0
                else
                  Discrete_learning.probability_of_count learned
                    (float_of_int count *. base_q /. entry.Sample.q_v)
              in
              (x_v *. n0_filtered)
              +. if sentry_spec && sentry then 1.0 else 0.0
          | None ->
              let scaled =
                if count = 0 then 0.0
                else float_of_int count /. entry.Sample.q_v
              in
              scaled +. if sentry_spec && sentry then 1.0 else 0.0
        in
        if last_factor > 0.0 then begin
          let witnesses =
            List.fold_left
              (fun acc path -> if path_passes path then acc + 1 else acc)
              0 complete_paths
          in
          if witnesses > 0 then
            total :=
              !total
              +. (float_of_int witnesses *. last_factor /. entry.Sample.p_v)
        end)
      synopsis.paths;
    !total
  end

let true_size ?(predicates = []) tables =
  validate tables;
  let k = length tables in
  let padded =
    List.init k (fun i ->
        match List.nth_opt predicates i with
        | Some p -> p
        | None -> Predicate.True)
  in
  let link_predicates = List.filteri (fun i _ -> i < k - 1) padded in
  let last_predicate = List.nth padded (k - 1) in
  (* Fold left-to-right: per join value of each link's pk, the number of
     complete passing paths reaching it from the left end. *)
  let path_counts =
    List.fold_left2
      (fun incoming link predicate ->
        let filtered =
          match predicate with
          | Predicate.True -> link.table
          | p -> Predicate.apply p link.table
        in
        let pk_index = Table.column_index filtered link.pk in
        let counts = Value.Tbl.create 1024 in
        Table.iter
          (fun row ->
            let reach =
              match (link.fk, incoming) with
              | None, _ -> 1 (* leftmost table: every row starts a path *)
              | Some fk, Some incoming -> (
                  match row.(Table.column_index filtered fk) with
                  | Value.Null -> 0
                  | u -> (
                      match Value.Tbl.find_opt incoming u with
                      | Some c -> c
                      | None -> 0))
              | Some _, None -> assert false
            in
            if reach > 0 then
              match row.(pk_index) with
              | Value.Null -> ()
              | v ->
                  Value.Tbl.replace counts v
                    (reach
                    + Option.value ~default:0 (Value.Tbl.find_opt counts v)))
          filtered;
        Some counts)
      None tables.links link_predicates
  in
  let path_counts = Option.get path_counts in
  let filtered_last =
    match last_predicate with
    | Predicate.True -> tables.last
    | p -> Predicate.apply p tables.last
  in
  let fk_index = Table.column_index filtered_last tables.last_fk in
  Table.fold
    (fun acc row ->
      match row.(fk_index) with
      | Value.Null -> acc
      | v -> (
          match Value.Tbl.find_opt path_counts v with
          | Some c -> acc + c
          | None -> acc))
    0 filtered_last

let synopsis_tuples synopsis =
  Value.Tbl.fold
    (fun _ complete acc ->
      List.fold_left (fun acc path -> acc + Array.length path) acc complete)
    synopsis.paths
    (Sample.total_tuples synopsis.sample)

let spec t = t.spec
