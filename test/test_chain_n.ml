(* Tests for arbitrary-length chain joins (Chain_n). *)

open Repro_relation
module Prng = Repro_util.Prng

let key_schema name extra =
  Schema.make ((name, Schema.T_int) :: extra)

(* Build a k-table chain with uniform fan-outs. Table T_i has [sizes.(i)]
   rows; link tables have pk = row index + 1 and fk uniformly random into
   the left neighbour; the last table has only an fk column. *)
let mk_chain ~sizes ~seed =
  let prng = Prng.create seed in
  let k = Array.length sizes in
  assert (k >= 2);
  let links =
    List.init (k - 1) (fun i ->
        let columns =
          if i = 0 then [ ("attr", Schema.T_int) ]
          else [ ("fk", Schema.T_int); ("attr", Schema.T_int) ]
        in
        let schema = key_schema "pk" columns in
        let table =
          Table.create schema
            (Array.init sizes.(i) (fun r ->
                 if i = 0 then [| Value.Int (r + 1); Value.Int (r mod 10) |]
                 else
                   [|
                     Value.Int (r + 1);
                     Value.Int (1 + Prng.int prng sizes.(i - 1));
                     Value.Int (r mod 10);
                   |]))
        in
        {
          Csdl.Chain_n.table;
          pk = "pk";
          fk = (if i = 0 then None else Some "fk");
        })
  in
  let last_schema =
    Schema.make [ ("fk", Schema.T_int); ("attr", Schema.T_int) ]
  in
  let last =
    Table.create last_schema
      (Array.init sizes.(k - 1) (fun r ->
           [| Value.Int (1 + Prng.int prng sizes.(k - 2)); Value.Int (r mod 10) |]))
  in
  { Csdl.Chain_n.links; last; last_fk = "fk" }

let chain4 = lazy (mk_chain ~sizes:[| 20; 60; 150; 600 |] ~seed:5)

(* Oracle: brute-force nested-loop chain count. *)
let brute_force ?(predicates = []) (tables : Csdl.Chain_n.tables) =
  let k = List.length tables.Csdl.Chain_n.links + 1 in
  let pred i =
    match List.nth_opt predicates i with
    | Some p -> p
    | None -> Predicate.True
  in
  let link_tables = Array.of_list tables.Csdl.Chain_n.links in
  let passes table p row = Predicate.compile p (Table.schema table) row in
  (* count paths reaching each row of the last table *)
  let rec reach level v =
    (* number of passing paths from the leftmost table to a row of
       link level [level] with pk = v *)
    if level < 0 then 1
    else
      let link = link_tables.(level) in
      let groups = Table.group_by link.Csdl.Chain_n.table "pk" in
      match Value.Tbl.find_opt groups v with
      | None -> 0
      | Some rows ->
          Array.fold_left
            (fun acc r ->
              let row = Table.row link.Csdl.Chain_n.table r in
              if not (passes link.Csdl.Chain_n.table (pred level) row) then acc
              else
                match link.Csdl.Chain_n.fk with
                | None -> acc + 1
                | Some fk ->
                    let u =
                      row.(Table.column_index link.Csdl.Chain_n.table fk)
                    in
                    acc + reach (level - 1) u)
            0 rows
  in
  let last = tables.Csdl.Chain_n.last in
  let fk_index = Table.column_index last tables.Csdl.Chain_n.last_fk in
  Table.fold
    (fun acc row ->
      if passes last (pred (k - 1)) row then acc + reach (k - 2) row.(fk_index)
      else acc)
    0 last

let test_length_and_jvd () =
  let t = Lazy.force chain4 in
  Alcotest.(check int) "length" 4 (Csdl.Chain_n.length t);
  let jvd = Csdl.Chain_n.jvd t in
  Alcotest.(check bool) "jvd in (0,1]" true (jvd > 0.0 && jvd <= 1.0)

let test_true_size_matches_brute_force () =
  let t = Lazy.force chain4 in
  Alcotest.(check int) "unfiltered" (brute_force t) (Csdl.Chain_n.true_size t)

let test_true_size_with_predicates () =
  let t = Lazy.force chain4 in
  let predicates =
    [
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 6);
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 8);
      Predicate.True;
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 5);
    ]
  in
  Alcotest.(check int) "filtered"
    (brute_force ~predicates t)
    (Csdl.Chain_n.true_size ~predicates t)

(* The oracle's view of a 3-table Chain_n. *)
let as_chain3 (t : Csdl.Chain_n.tables) =
  match t.Csdl.Chain_n.links with
  | [ a; b ] ->
      {
        Chain_oracle.a = a.Csdl.Chain_n.table;
        a_pk = a.Csdl.Chain_n.pk;
        b = b.Csdl.Chain_n.table;
        b_pk = b.Csdl.Chain_n.pk;
        b_fk = Option.get b.Csdl.Chain_n.fk;
        c = t.Csdl.Chain_n.last;
        c_fk = t.Csdl.Chain_n.last_fk;
      }
  | _ -> invalid_arg "as_chain3: not a 3-table chain"

let test_true_size_matches_chain3 () =
  (* a 3-table Chain_n must agree with the 3-table Chain it replaced *)
  let t3 = mk_chain ~sizes:[| 30; 90; 400 |] ~seed:9 in
  Alcotest.(check int) "agree"
    (Chain_oracle.true_size (as_chain3 t3))
    (Csdl.Chain_n.true_size t3)

let test_scaling_exact_at_theta_one () =
  let t = Lazy.force chain4 in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 2) in
  Alcotest.(check (float 1e-6)) "exact"
    (float_of_int (Csdl.Chain_n.true_size t))
    (Csdl.Chain_n.estimate prepared synopsis)

let test_scaling_exact_filtered_at_theta_one () =
  let t = Lazy.force chain4 in
  let predicates =
    [
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 7);
      Predicate.True;
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 9);
      Predicate.Compare (Predicate.Lt, "attr", Value.Int 6);
    ]
  in
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 3) in
  Alcotest.(check (float 1e-6)) "filtered exact"
    (float_of_int (Csdl.Chain_n.true_size ~predicates t))
    (Csdl.Chain_n.estimate ~predicates prepared synopsis)

let test_dl_reasonable () =
  let t = Lazy.force chain4 in
  let truth = float_of_int (Csdl.Chain_n.true_size t) in
  let prepared = Csdl.Chain_n.prepare_opt ~theta:0.3 t in
  let prng = Prng.create 4 in
  let qs =
    Array.init 15 (fun _ ->
        let synopsis = Csdl.Chain_n.draw prepared prng in
        Repro_stats.Qerror.compute ~truth
          ~estimate:(Csdl.Chain_n.estimate prepared synopsis))
  in
  let median = Repro_util.Summary.median qs in
  Alcotest.(check bool)
    (Printf.sprintf "median q-error %.2f < 3" median)
    true (median < 3.0)

let test_validation () =
  let t = Lazy.force chain4 in
  Alcotest.check_raises "no links"
    (Invalid_argument "Chain_n: at least one link table required") (fun () ->
      Csdl.Chain_n.validate { t with Csdl.Chain_n.links = [] });
  (* head with fk *)
  let bad_head =
    match t.Csdl.Chain_n.links with
    | head :: rest -> { head with Csdl.Chain_n.fk = Some "attr" } :: rest
    | [] -> assert false
  in
  Alcotest.check_raises "head has fk"
    (Invalid_argument "Chain_n: the leftmost table must have no fk") (fun () ->
      Csdl.Chain_n.validate { t with Csdl.Chain_n.links = bad_head })

let test_five_table_chain () =
  let t = mk_chain ~sizes:[| 10; 25; 60; 150; 500 |] ~seed:11 in
  Alcotest.(check int) "length" 5 (Csdl.Chain_n.length t);
  Alcotest.(check int) "oracle agreement" (brute_force t)
    (Csdl.Chain_n.true_size t);
  let prepared = Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:1.0 t in
  let synopsis = Csdl.Chain_n.draw prepared (Prng.create 12) in
  Alcotest.(check (float 1e-6)) "exact at theta=1"
    (float_of_int (Csdl.Chain_n.true_size t))
    (Csdl.Chain_n.estimate prepared synopsis)

(* ---------------- Chain_n at k = 3 against the Chain oracle -------- *)

module G = QCheck.Gen

(* A random 3-table PK-FK chain A <- B <- C: pks are 1..n, every table has
   an "attr" in 0..9, and each table gets a predicate on it or none. With
   [dangling], an fk may also be Null or name a key past the end. *)
type case = {
  a_attrs : int array;
  b_rows : (int option * int) array;  (** fk, attr *)
  c_rows : (int option * int) array;
  preds : (Predicate.comparison * int) option list;  (** A, B, C *)
  theta : float;
  seed : int;
}

let case_gen ~dangling =
  let open G in
  let fk n =
    if dangling then
      frequency
        [
          (6, map Option.some (int_range 1 n));
          (1, return None);
          (1, map (fun k -> Some (n + k)) (int_range 1 3));
        ]
    else map Option.some (int_range 1 n)
  in
  let rows n_left n =
    array_size (return n) (pair (fk n_left) (int_range 0 9))
  in
  let* n_a = int_range 1 12 in
  let* n_b = int_range 1 30 in
  let* n_c = int_range 0 120 in
  let* a_attrs = array_size (return n_a) (int_range 0 9) in
  let* b_rows = rows n_a n_b in
  let* c_rows = rows n_b n_c in
  let pred =
    opt (pair (oneofa Predicate.[| Eq; Ne; Lt; Le; Gt; Ge |]) (int_range 0 9))
  in
  let* preds = list_repeat 3 pred in
  let* theta = oneofa [| 0.02; 0.1; 0.3; 1.0 |] in
  let+ seed = int_bound 1_000_000 in
  { a_attrs; b_rows; c_rows; preds; theta; seed }

let print_case c =
  let fk = function None -> "null" | Some k -> string_of_int k in
  let rows r =
    String.concat ";"
      (Array.to_list (Array.map (fun (k, x) -> fk k ^ "/" ^ string_of_int x) r))
  in
  Printf.sprintf "A attrs %s\nB %s\nC %s\npreds %s\ntheta %g seed %d"
    (String.concat ";" (Array.to_list (Array.map string_of_int c.a_attrs)))
    (rows c.b_rows) (rows c.c_rows)
    (String.concat ", "
       (List.map
          (function
            | None -> "-"
            | Some (op, x) ->
                Predicate.to_string
                  (Predicate.Compare (op, "attr", Value.Int x)))
          c.preds))
    c.theta c.seed

let tables_of_case c =
  let key = function None -> Value.Null | Some k -> Value.Int k in
  let a =
    Table.create
      (Schema.make [ ("pk", Schema.T_int); ("attr", Schema.T_int) ])
      (Array.mapi (fun i x -> [| Value.Int (i + 1); Value.Int x |]) c.a_attrs)
  in
  let b =
    Table.create
      (Schema.make
         [ ("pk", Schema.T_int); ("fk", Schema.T_int); ("attr", Schema.T_int) ])
      (Array.mapi
         (fun i (k, x) -> [| Value.Int (i + 1); key k; Value.Int x |])
         c.b_rows)
  in
  let last =
    Table.create
      (Schema.make [ ("fk", Schema.T_int); ("attr", Schema.T_int) ])
      (Array.map (fun (k, x) -> [| key k; Value.Int x |]) c.c_rows)
  in
  {
    Csdl.Chain_n.links =
      [
        { Csdl.Chain_n.table = a; pk = "pk"; fk = None };
        { Csdl.Chain_n.table = b; pk = "pk"; fk = Some "fk" };
      ];
    last;
    last_fk = "fk";
  }

let predicates_of_case c =
  List.map
    (function
      | None -> Predicate.True
      | Some (op, x) -> Predicate.Compare (op, "attr", Value.Int x))
    c.preds

(* Both estimators on one case, for CSDL-Opt and CS2L: (estimate, truth,
   stored tuples) of Chain_n, then of the oracle. *)
let run_both c =
  let t = tables_of_case c in
  let chain = as_chain3 t in
  let predicates = predicates_of_case c in
  let pred_a, pred_b, pred_c =
    match predicates with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  List.map
    (fun opt ->
      let n =
        let prepared =
          if opt then Csdl.Chain_n.prepare_opt ~theta:c.theta t
          else Csdl.Chain_n.prepare Csdl.Spec.cs2l ~theta:c.theta t
        in
        let synopsis = Csdl.Chain_n.draw prepared (Prng.create c.seed) in
        ( Csdl.Chain_n.estimate ~predicates prepared synopsis,
          Csdl.Chain_n.true_size ~predicates t,
          Csdl.Chain_n.synopsis_tuples synopsis )
      in
      let o =
        let prepared =
          if opt then Chain_oracle.prepare_opt ~theta:c.theta chain
          else Chain_oracle.prepare Csdl.Spec.cs2l ~theta:c.theta chain
        in
        let synopsis = Chain_oracle.draw prepared (Prng.create c.seed) in
        ( Chain_oracle.estimate ~pred_a ~pred_b ~pred_c prepared synopsis,
          Chain_oracle.true_size ~pred_a ~pred_b ~pred_c chain,
          Chain_oracle.synopsis_tuples synopsis )
      in
      (n, o))
    [ true; false ]

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let prop_resolved_bit_identical =
  QCheck.Test.make ~count:500
    ~name:"every fk resolves: estimate, truth, tuples = Chain, bit for bit"
    (QCheck.make ~print:print_case (case_gen ~dangling:false))
    (fun c ->
      List.for_all
        (fun ((e, j, s), (e', j', s')) -> same_bits e e' && j = j' && s = s')
        (run_both c))

(* A B row with no A partner stays in the oracle's link table, so its
   hashtable can iterate the same terms in another order: estimates may
   differ in the last bits, and its stored-tuple count includes such rows. *)
let prop_dangling_close =
  QCheck.Test.make ~count:500
    ~name:"null or dangling fks: truth equal, estimate within 1e-9"
    (QCheck.make ~print:print_case (case_gen ~dangling:true))
    (fun c ->
      List.for_all
        (fun ((e, j, _), (e', j', _)) ->
          j = j' && Float.abs (e -. e') <= 1e-9 *. Float.abs e')
        (run_both c))

let () =
  Alcotest.run "csdl_chain_n"
    [
      ( "chain_n",
        [
          Alcotest.test_case "length/jvd" `Quick test_length_and_jvd;
          Alcotest.test_case "true size vs brute force" `Quick
            test_true_size_matches_brute_force;
          Alcotest.test_case "filtered true size" `Quick test_true_size_with_predicates;
          Alcotest.test_case "agrees with Chain" `Quick test_true_size_matches_chain3;
          Alcotest.test_case "scaling exact" `Quick test_scaling_exact_at_theta_one;
          Alcotest.test_case "scaling exact filtered" `Quick
            test_scaling_exact_filtered_at_theta_one;
          Alcotest.test_case "DL reasonable" `Slow test_dl_reasonable;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "five tables" `Quick test_five_table_chain;
        ] );
      ( "chain oracle",
        List.map QCheck_alcotest.to_alcotest
          [ prop_resolved_bit_identical; prop_dangling_close ] );
    ]
