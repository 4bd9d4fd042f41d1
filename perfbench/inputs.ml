(* Fixed data, seeded requests, and the reply oracle.

   The tables, the snapshots and the synopsis draws come from constants
   fixed per workload; --seed moves only the predicate variants and the
   request order. Across data seeds the synopses differ several-fold in
   size, so a data seed in the run would swamp any bound of a tenth. *)

open Repro_relation
module Prng = Repro_util.Prng

(* repro_cli's default --seed, used both to generate the tables and to
   draw the synopses. *)
let data_seed = 20200427
let theta = 0.05

type graph = {
  key : string;
  left : string;
  lcol : string;
  right : string;
  rcol : string;
}

(* The eight join graphs of the 14 two-table JOB queries, in the queries'
   own orientation. *)
let graphs =
  let g key left lcol right rcol = { key; left; lcol; right; rcol } in
  [
    g "mc_ct" "movie_companies" "company_type_id" "company_type" "id";
    g "mi_it" "movie_info_idx" "info_type_id" "info_type" "id";
    g "t_mc" "title" "id" "movie_companies" "movie_id";
    g "t_mi" "title" "id" "movie_info_idx" "movie_id";
    g "t_mk" "title" "id" "movie_keyword" "movie_id";
    g "mk_k" "movie_keyword" "keyword_id" "keyword" "id";
    g "at_mk" "aka_title" "movie_id" "movie_keyword" "movie_id";
    g "ci_t" "cast_info" "movie_id" "title" "id";
  ]

let csv dir table = Filename.concat dir (table ^ ".csv")

let graph_arg dir g =
  Printf.sprintf "%s=%s:%s,%s:%s" g.key (csv dir g.left) g.lcol
    (csv dir g.right) g.rcol

let tables (d : Repro_datagen.Imdb.t) =
  [
    ("title", d.title);
    ("aka_title", d.aka_title);
    ("movie_companies", d.movie_companies);
    ("movie_info_idx", d.movie_info_idx);
    ("movie_keyword", d.movie_keyword);
    ("keyword", d.keyword);
    ("cast_info", d.cast_info);
    ("company_type", d.company_type);
    ("info_type", d.info_type);
  ]

let table_names =
  [
    "title"; "aka_title"; "movie_companies"; "movie_info_idx"; "movie_keyword";
    "keyword"; "cast_info"; "company_type"; "info_type";
  ]

let fact_tables =
  [ "aka_title"; "movie_companies"; "movie_info_idx"; "movie_keyword"; "cast_info" ]

(* Snapshot [k] of a refresh sequence: the base tables with every fact row
   whose index is [k] mod 50 deleted, so each snapshot changes about 2% of
   the fact rows (and with them every graph's fingerprints) while synopsis
   sizes stay comparable from one snapshot to the next. Snapshot 0 of a
   non-refresh workload is the base data itself. *)
let write_snapshot ~dir ?churn (d : Repro_datagen.Imdb.t) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, table) ->
      let table =
        match churn with
        | Some k when List.mem name fact_tables ->
            let keep = Array.make (Table.cardinality table) true in
            Array.iteri (fun i _ -> if i mod 50 = k then keep.(i) <- false) keep;
            let idx =
              Array.of_list
                (List.filter (fun i -> keep.(i))
                   (List.init (Table.cardinality table) Fun.id))
            in
            Table.select_rows table idx
        | _ -> table
      in
      Csv_io.write (csv dir name) table)
    (tables d)

(* ---------------- requests ---------------- *)

type request = {
  key : string;
  pred_a : string;  (** left predicate text, [""] for none *)
  pred_b : string;
  line : string;  (** the wire request line, newline included *)
}

let company_kinds =
  [|
    "production companies"; "distributors"; "special effects companies";
    "miscellaneous companies";
  |]

(* The 14 queries of Repro_datagen.Job_workload as predicate text, each
   side a function of an optional PRNG: [None] gives the query's own
   constants, [Some p] a seeded variant of them. *)
let queries ~n_title =
  let company_domain = max 1 (n_title / 20) in
  let int_or base lo hi = function
    | None -> base
    | Some p -> lo + Prng.int p (hi - lo + 1)
  in
  let prefix_or base = function
    | None -> base
    | Some p -> Repro_datagen.Imdb.title_prefixes.(Prng.int p 40)
  in
  let year base r = Printf.sprintf "production_year > %d" (int_or base 1900 2015 r) in
  let none _ = "" in
  let cmp col op base lo hi r = Printf.sprintf "%s %s %d" col op (int_or base lo hi r) in
  let kind base r =
    Printf.sprintf "kind = '%s'"
      (match r with None -> base | Some p -> company_kinds.(Prng.int p 4))
  in
  let max_company = max 2 (company_domain / 5) in
  [
    ("Q1a1", "mc_ct",
      cmp "company_id" "<=" (max 1 (company_domain / 33)) 1 max_company,
      kind "production companies");
    ("Q1a4", "mc_ct",
      cmp "company_id" "<=" (max 1 (company_domain / 50)) 1 max_company,
      kind "special effects companies");
    ("Q1b1", "mi_it", none, none);
    ("Q1b4", "mi_it", none, cmp "id" "=" 100 1 113);
    ("Q1a2", "t_mc", year 2010, cmp "company_type_id" "=" 2 1 4);
    ("Q1a3", "t_mi", year 2000, cmp "info_type_id" "<=" 3 1 12);
    ("Q1b2", "t_mi", year 1950, none);
    ("Q1b3", "t_mc", none, none);
    ("Q1b5", "t_mc", cmp "kind_id" "<=" 3 1 7, none);
    ("Q2a1", "t_mk", year 1990, none);
    ("Q2a2", "mk_k", none,
      fun r -> Printf.sprintf "keyword LIKE '%s%%'" (prefix_or "The" r));
    ("Q2b1", "at_mk",
      (fun r -> Printf.sprintf "title LIKE '%s%%'" (prefix_or "The" r)),
      cmp "keyword_id" "<=" 1000 100 3000);
    ("Q2c1", "at_mk",
      (fun r ->
        Printf.sprintf "title LIKE '%s%%'"
          (match r with
          | None -> "Word400"
          | Some p -> Printf.sprintf "Word%03d" (1 + Prng.int p 460))),
      cmp "keyword_id" "<=" 100 10 500);
    ("Q2d1", "ci_t", cmp "role_id" "<=" 2 1 11, none);
  ]

let variants_per_query = 100

let make_request ~key ~pred_a ~pred_b =
  let opt s = if s = "" then None else Some s in
  let line =
    Repro_server.Protocol.render_estimate ~key ?pred_a:(opt pred_a)
      ?pred_b:(opt pred_b) ()
  in
  { key; pred_a; pred_b; line = line ^ "\n" }

(* The distinct requests: every query with its own constants, then
   [variants_per_query] seeded variants of each. *)
let requests ~seed ~n_title =
  let qs = queries ~n_title in
  let base =
    List.map (fun (_, key, l, r) -> make_request ~key ~pred_a:(l None) ~pred_b:(r None)) qs
  in
  let variants =
    List.concat_map
      (fun (name, key, l, r) ->
        List.init variants_per_query (fun j ->
            let p = Prng.create_keyed ~seed (Printf.sprintf "variant/%s/%d" name j) in
            let pred_a = l (Some p) in
            let pred_b = r (Some p) in
            make_request ~key ~pred_a ~pred_b))
      qs
  in
  Array.of_list (base @ variants)

(* The request order: back-to-back seeded shuffles of all distinct
   requests, [len] indices in all (the window wraps around if it ever
   outruns them). *)
let stream ~seed ~distinct ~len =
  let out = Array.make len 0 in
  let perm = Array.init distinct Fun.id in
  let round = ref 0 in
  let i = ref 0 in
  while !i < len do
    let p = Prng.create_keyed ~seed (Printf.sprintf "order/%d" !round) in
    Prng.shuffle p perm;
    Array.iter
      (fun r ->
        if !i < len then begin
          out.(!i) <- r;
          incr i
        end)
      perm;
    incr round
  done;
  out

(* ---------------- oracle and exact sizes ---------------- *)

let parse_side s =
  if s = "" then None
  else
    match Predicate_parser.parse s with
    | Ok p -> Some p
    | Error e -> Proc.fail "unparseable predicate %S: %s" s e

(* The exact reply the daemon must give for each request it answers [ok]:
   what [repro_cli batch] prints for it, computed with the library from
   the same store file. *)
let oracle ~store (reqs : request array) =
  match Csdl.Store.load_result ~resolve_table:Csv_io.read_auto store with
  | Error f -> Proc.fail "oracle: %s: %s" store (Csdl.Fault.error_to_string f)
  | Ok s ->
      Array.map
        (fun r ->
          match
            Csdl.Store.estimate ?pred_a:(parse_side r.pred_a)
              ?pred_b:(parse_side r.pred_b) s ~key:r.key
          with
          | v -> Printf.sprintf "ok %.17g" v
          | exception e -> "oracle raised " ^ Printexc.to_string e)
        reqs

(* The outcome the daemon's engine gives each request, rendered as the
   daemon renders it but without the request ID: an engine built from the
   same store file the way [repro_cli serve] builds it, fed the same
   request line. Its [degraded] lines are the replies a [degraded] reply
   must equal (defect b of README.md); its [ok] lines are not used, since
   an [ok] reply must equal [oracle] above. *)
let outcomes ~store (reqs : request array) =
  let module Engine = Repro_server.Engine in
  let module Protocol = Repro_server.Protocol in
  let config = { Engine.default_config with seed = data_seed } in
  match Engine.create config ~resolve_table:Csv_io.read_auto ~store_path:store with
  | Error f -> Proc.fail "outcomes: %s: %s" store (Csdl.Fault.error_to_string f)
  | Ok e ->
      Array.map
        (fun r ->
          match Protocol.parse_request (String.sub r.line 0 (String.length r.line - 1)) with
          | Ok (Protocol.Estimate { key; pred_a; pred_b; _ }) ->
              (* far beyond any request's cost: only the daemon's own
                 deadline can expire *)
              let deadline = Repro_server.Deadline.make ~budget_s:60.0 () in
              Protocol.render_outcome (Engine.handle e ~deadline ~key ?pred_a ?pred_b ())
          | _ -> Proc.fail "outcomes: request line did not parse: %s" r.line)
        reqs

(* Exact join sizes over the CSVs, for the q-error guard. *)
let truths ~dir (reqs : request array) =
  let cache = Hashtbl.create 16 in
  let table name =
    match Hashtbl.find_opt cache name with
    | Some t -> t
    | None ->
        let t = Csv_io.read_auto (csv dir name) in
        Hashtbl.replace cache name t;
        t
  in
  Array.map
    (fun (r : request) ->
      let g = List.find (fun (g : graph) -> g.key = r.key) graphs in
      let side t col pred =
        match parse_side pred with
        | None -> Join.unfiltered (table t) col
        | Some p -> Join.filtered (table t) col p
      in
      float (Join.pair_count (side g.left g.lcol r.pred_a) (side g.right g.rcol r.pred_b)))
    reqs
