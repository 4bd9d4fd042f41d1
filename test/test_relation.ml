(* Tests for the relational engine: values, schemas, tables, predicates,
   joins, CSV round-trips. *)

open Repro_relation

let schema_ab =
  Schema.make [ ("a", Schema.T_int); ("b", Schema.T_string) ]

let mk_table rows = Table.of_rows schema_ab rows

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_null_equality () =
  Alcotest.(check bool) "null <> null (SQL)" false Value.(equal Null Null);
  Alcotest.(check bool) "null <> 1" false Value.(equal Null (Int 1));
  Alcotest.(check bool) "1 = 1" true Value.(equal (Int 1) (Int 1));
  Alcotest.(check bool) "int/float widening" true Value.(equal (Int 1) (Float 1.0))

let test_value_compare_total_order () =
  Alcotest.(check bool) "null < int" true (Value.compare Value.Null (Value.Int 0) < 0);
  Alcotest.(check bool) "int vs float" true
    (Value.compare (Value.Int 2) (Value.Float 1.5) > 0);
  Alcotest.(check int) "null = null in containers" 0 (Value.compare Value.Null Value.Null);
  Alcotest.(check bool) "str order" true
    (Value.compare (Value.Str "abc") (Value.Str "abd") < 0)

let test_value_containers_handle_null () =
  let tbl = Value.Tbl.create 4 in
  Value.Tbl.replace tbl Value.Null 1;
  Value.Tbl.replace tbl Value.Null 2;
  Alcotest.(check int) "null key unified" 1 (Value.Tbl.length tbl);
  Alcotest.(check (option int)) "replaced" (Some 2) (Value.Tbl.find_opt tbl Value.Null)

let test_value_int_float_keys_apart () =
  Alcotest.(check bool) "Key: Int 3 <> Float 3." false
    Value.(Key.equal (Int 3) (Float 3.0));
  Alcotest.(check bool) "equal still widens" true
    Value.(equal (Int 3) (Float 3.0));
  let tbl = Value.Tbl.create 16 in
  for x = 0 to 9_999 do
    Value.Tbl.replace tbl (Value.Int x) ();
    Value.Tbl.replace tbl (Value.Float (float_of_int x)) ()
  done;
  Value.Tbl.replace tbl (Value.Float (-0.0)) ();
  Alcotest.(check int) "each Int x beside its float, one zero" 20_000
    (Value.Tbl.length tbl)

let test_value_to_string () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.Int 42));
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "str" "hi" (Value.to_string (Value.Str "hi"))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_lookup () =
  Alcotest.(check int) "arity" 2 (Schema.arity schema_ab);
  Alcotest.(check int) "index a" 0 (Schema.index_of schema_ab "a");
  Alcotest.(check int) "index b" 1 (Schema.index_of schema_ab "b");
  Alcotest.(check bool) "mem" true (Schema.mem schema_ab "a");
  Alcotest.(check bool) "not mem" false (Schema.mem schema_ab "zzz")

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Schema.make: duplicate column \"x\"") (fun () ->
      ignore (Schema.make [ ("x", Schema.T_int); ("x", Schema.T_int) ]))

let test_schema_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Schema.make: empty column list")
    (fun () -> ignore (Schema.make []))

let test_schema_accepts () =
  Alcotest.(check bool) "int col accepts int" true
    (Schema.accepts Schema.T_int (Value.Int 1));
  Alcotest.(check bool) "int col accepts null" true
    (Schema.accepts Schema.T_int Value.Null);
  Alcotest.(check bool) "int col rejects str" false
    (Schema.accepts Schema.T_int (Value.Str "x"));
  Alcotest.(check bool) "float col accepts int" true
    (Schema.accepts Schema.T_float (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let sample_rows =
  [
    [| Value.Int 1; Value.Str "x" |];
    [| Value.Int 2; Value.Str "y" |];
    [| Value.Int 1; Value.Str "z" |];
    [| Value.Null; Value.Str "n" |];
  ]

let test_table_basics () =
  let t = mk_table sample_rows in
  Alcotest.(check int) "cardinality" 4 (Table.cardinality t);
  Alcotest.(check int) "distinct a (nulls skipped)" 2 (Table.distinct_count t "a")

let test_table_arity_check () =
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.create: row 0 has arity 1, schema wants 2")
    (fun () -> ignore (Table.of_rows schema_ab [ [| Value.Int 1 |] ]))

let test_table_validation () =
  Alcotest.check_raises "bad type"
    (Invalid_argument "Table.create: row 0 column a: string value") (fun () ->
      ignore
        (Table.create ~validate:true schema_ab
           [| [| Value.Str "oops"; Value.Str "x" |] |]))

let test_table_frequency_map () =
  let t = mk_table sample_rows in
  let freq = Table.frequency_map t "a" in
  Alcotest.(check (option int)) "freq 1" (Some 2) (Value.Tbl.find_opt freq (Value.Int 1));
  Alcotest.(check (option int)) "freq 2" (Some 1) (Value.Tbl.find_opt freq (Value.Int 2));
  Alcotest.(check (option int)) "null skipped" None (Value.Tbl.find_opt freq Value.Null)

let test_table_group_by () =
  let t = mk_table sample_rows in
  let groups = Table.group_by t "a" in
  Alcotest.(check (option (array int)))
    "group of 1" (Some [| 0; 2 |])
    (Value.Tbl.find_opt groups (Value.Int 1));
  Alcotest.(check int) "two groups" 2 (Value.Tbl.length groups)

let test_table_filter_and_select () =
  let t = mk_table sample_rows in
  let idx = Table.column_index t "a" in
  let filtered = Table.filter (fun r -> Value.equal r.(idx) (Value.Int 1)) t in
  Alcotest.(check int) "filter" 2 (Table.cardinality filtered);
  let picked = Table.select_rows t [| 1; 3 |] in
  Alcotest.(check int) "select" 2 (Table.cardinality picked);
  Alcotest.(check string) "selected row" "y" (Value.to_string (Table.row picked 0).(1))

let test_table_unknown_column () =
  let t = mk_table sample_rows in
  Alcotest.check_raises "unknown" (Invalid_argument "Table: no column named \"nope\"")
    (fun () -> ignore (Table.column_values t "nope"))

(* ------------------------------------------------------------------ *)
(* Predicate                                                           *)
(* ------------------------------------------------------------------ *)

let test_predicate_compare () =
  let t = mk_table sample_rows in
  let sel p = Table.cardinality (Predicate.apply p t) in
  Alcotest.(check int) "a = 1" 2 (sel (Predicate.Compare (Predicate.Eq, "a", Value.Int 1)));
  Alcotest.(check int) "a > 1" 1 (sel (Predicate.Compare (Predicate.Gt, "a", Value.Int 1)));
  Alcotest.(check int) "a <= 2" 3 (sel (Predicate.Compare (Predicate.Le, "a", Value.Int 2)));
  Alcotest.(check int) "a <> 1 skips null" 1
    (sel (Predicate.Compare (Predicate.Ne, "a", Value.Int 1)))

let test_predicate_null_comparisons_false () =
  let t = mk_table [ [| Value.Null; Value.Str "x" |] ] in
  let sel p = Table.cardinality (Predicate.apply p t) in
  Alcotest.(check int) "null = 1 is false" 0
    (sel (Predicate.Compare (Predicate.Eq, "a", Value.Int 1)));
  Alcotest.(check int) "NOT (null = 1) is true (2-valued)" 1
    (sel (Predicate.Not (Predicate.Compare (Predicate.Eq, "a", Value.Int 1))))

let test_predicate_like () =
  let rows =
    [
      [| Value.Int 1; Value.Str "The Matrix" |];
      [| Value.Int 2; Value.Str "Theodore" |];
      [| Value.Int 3; Value.Str "A Matrix" |];
      [| Value.Int 4; Value.Null |];
    ]
  in
  let t = mk_table rows in
  let sel p = Table.cardinality (Predicate.apply p t) in
  Alcotest.(check int) "prefix The" 2 (sel (Predicate.Like_prefix ("b", "The")));
  Alcotest.(check int) "prefix The-space" 1 (sel (Predicate.Like_prefix ("b", "The ")));
  Alcotest.(check int) "contains Matrix" 2 (sel (Predicate.Like_contains ("b", "Matrix")));
  Alcotest.(check int) "contains empty matches all non-null strings" 3
    (sel (Predicate.Like_contains ("b", "")))

let test_predicate_boolean_composition () =
  let t = mk_table sample_rows in
  let sel p = Table.cardinality (Predicate.apply p t) in
  let a1 = Predicate.Compare (Predicate.Eq, "a", Value.Int 1) in
  let by = Predicate.Compare (Predicate.Eq, "b", Value.Str "y") in
  Alcotest.(check int) "and" 0 (sel (Predicate.And (a1, by)));
  Alcotest.(check int) "or" 3 (sel (Predicate.Or (a1, by)));
  Alcotest.(check int) "true" 4 (sel Predicate.True);
  Alcotest.(check int) "false" 0 (sel Predicate.False);
  Alcotest.(check int) "conj empty" 4 (sel (Predicate.conj []))

let test_predicate_selectivity () =
  let t = mk_table sample_rows in
  Alcotest.(check (float 1e-9)) "selectivity" 0.5
    (Predicate.selectivity (Predicate.Compare (Predicate.Eq, "a", Value.Int 1)) t)

let test_predicate_to_string () =
  Alcotest.(check string) "render like"
    "b LIKE 'The%'"
    (Predicate.to_string (Predicate.Like_prefix ("b", "The")));
  Alcotest.(check string) "render compare" "a > 3"
    (Predicate.to_string (Predicate.Compare (Predicate.Gt, "a", Value.Int 3)))

(* ------------------------------------------------------------------ *)
(* Join                                                                *)
(* ------------------------------------------------------------------ *)

let join_left =
  mk_table
    [
      [| Value.Int 1; Value.Str "l1" |];
      [| Value.Int 1; Value.Str "l2" |];
      [| Value.Int 2; Value.Str "l3" |];
      [| Value.Int 9; Value.Str "l4" |];
      [| Value.Null; Value.Str "l5" |];
    ]

let join_right =
  mk_table
    [
      [| Value.Int 1; Value.Str "r1" |];
      [| Value.Int 2; Value.Str "r2" |];
      [| Value.Int 2; Value.Str "r3" |];
      [| Value.Null; Value.Str "r4" |];
    ]

(* Oracle: nested-loop join count. *)
let nested_loop_count ta ca tb cb pa pb =
  let ia = Table.column_index ta ca and ib = Table.column_index tb cb in
  let pass_a = Predicate.compile pa (Table.schema ta) in
  let pass_b = Predicate.compile pb (Table.schema tb) in
  let count = ref 0 in
  Table.iter
    (fun row_a ->
      if pass_a row_a then
        Table.iter
          (fun row_b ->
            if pass_b row_b && Value.equal row_a.(ia) row_b.(ib) then incr count)
          tb)
    ta;
  !count

let test_join_pair_count () =
  let expected =
    nested_loop_count join_left "a" join_right "a" Predicate.True Predicate.True
  in
  Alcotest.(check int) "matches nested loop" expected
    (Join.pair_count (Join.unfiltered join_left "a") (Join.unfiltered join_right "a"));
  Alcotest.(check int) "value" 4 expected (* 2*1 for v=1, 1*2 for v=2 *)

let test_join_pair_count_filtered () =
  let pa = Predicate.Compare (Predicate.Eq, "b", Value.Str "l1") in
  let expected = nested_loop_count join_left "a" join_right "a" pa Predicate.True in
  Alcotest.(check int) "filtered" expected
    (Join.pair_count (Join.filtered join_left "a" pa) (Join.unfiltered join_right "a"))

let test_join_nulls_never_join () =
  let l = mk_table [ [| Value.Null; Value.Str "x" |] ] in
  let r = mk_table [ [| Value.Null; Value.Str "y" |] ] in
  Alcotest.(check int) "null join" 0
    (Join.pair_count (Join.unfiltered l "a") (Join.unfiltered r "a"))

let test_join_jvd () =
  (* left: 3 distinct / 5 rows; right: 2 distinct / 4 rows *)
  Alcotest.(check (float 1e-9)) "jvd" 0.5 (Join.jvd join_left "a" join_right "a")

let chain_a =
  Table.of_rows
    (Schema.make [ ("pk", Schema.T_int); ("x", Schema.T_int) ])
    [ [| Value.Int 1; Value.Int 10 |]; [| Value.Int 2; Value.Int 20 |] ]

let chain_b =
  Table.of_rows
    (Schema.make [ ("pk", Schema.T_int); ("fk", Schema.T_int) ])
    [
      [| Value.Int 100; Value.Int 1 |];
      [| Value.Int 200; Value.Int 1 |];
      [| Value.Int 300; Value.Int 2 |];
      [| Value.Int 400; Value.Int 9 |];
    ]

let chain_c =
  Table.of_rows
    (Schema.make [ ("fk", Schema.T_int); ("y", Schema.T_int) ])
    [
      [| Value.Int 100; Value.Int 0 |];
      [| Value.Int 100; Value.Int 1 |];
      [| Value.Int 300; Value.Int 2 |];
      [| Value.Int 999; Value.Int 3 |];
    ]

(* The exact 3-table chain count is [Csdl.Chain_n.true_size] at k = 3. *)
let chain3 =
  {
    Csdl.Chain_n.links =
      [
        { Csdl.Chain_n.table = chain_a; pk = "pk"; fk = None };
        { Csdl.Chain_n.table = chain_b; pk = "pk"; fk = Some "fk" };
      ];
    last = chain_c;
    last_fk = "fk";
  }

let test_join_chain3 () =
  (* A |><| B |><| C: B rows 100,200 -> A pk 1; B 300 -> A pk 2; B 400 -> no A.
     C: two rows fk=100 (join via B 100 -> A 1), one fk=300 (B 300 -> A 2),
     one 999 no match. Total = 2 + 1 = 3. *)
  Alcotest.(check int) "chain count" 3 (Csdl.Chain_n.true_size chain3)

let test_join_chain3_with_predicate () =
  (* Selection x = 10 keeps only A pk 1, killing the fk=300 path. *)
  Alcotest.(check int) "filtered chain" 2
    (Csdl.Chain_n.true_size
       ~predicates:[ Predicate.Compare (Predicate.Eq, "x", Value.Int 10) ]
       chain3)

let test_join_star_count () =
  let fact =
    Table.of_rows
      (Schema.make [ ("fk1", Schema.T_int); ("fk2", Schema.T_int) ])
      [
        [| Value.Int 1; Value.Int 100 |];
        [| Value.Int 1; Value.Int 999 |];
        [| Value.Int 2; Value.Int 100 |];
      ]
  in
  let d1 = chain_a (* pk 1,2 *) in
  let d2 =
    Table.of_rows
      (Schema.make [ ("pk", Schema.T_int) ])
      [ [| Value.Int 100 |] ]
  in
  Alcotest.(check int) "star count" 2
    (Join.star_count ~fact ~fact_predicate:Predicate.True
       ~dimensions:
         [ ("fk1", Join.unfiltered d1 "pk"); ("fk2", Join.unfiltered d2 "pk") ])

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_roundtrip () =
  let t =
    mk_table
      [
        [| Value.Int 1; Value.Str "plain" |];
        [| Value.Int 2; Value.Str "with,comma" |];
        [| Value.Int 3; Value.Str "with\"quote" |];
        [| Value.Null; Value.Str "" |];
      ]
  in
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.write path t;
      let back = Csv_io.read_auto path in
      Alcotest.(check int) "rows" 4 (Table.cardinality back);
      Alcotest.(check string) "comma field" "with,comma"
        (Value.to_string (Table.row back 1).(1));
      Alcotest.(check string) "quote field" "with\"quote"
        (Value.to_string (Table.row back 2).(1));
      Alcotest.(check bool) "null survives" true
        (match (Table.row back 3).(0) with Value.Null -> true | _ -> false))

let test_csv_read_auto_infers_types () =
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "id,score,name\n1,2.5,alpha\n2,3,beta\n,,\n";
      close_out oc;
      let t = Csv_io.read_auto path in
      let schema = Table.schema t in
      Alcotest.(check int) "rows" 3 (Table.cardinality t);
      Alcotest.(check bool) "id is int" true
        (Schema.type_of schema (Schema.index_of schema "id") = Schema.T_int);
      Alcotest.(check bool) "score is float" true
        (Schema.type_of schema (Schema.index_of schema "score") = Schema.T_float);
      Alcotest.(check bool) "name is string" true
        (Schema.type_of schema (Schema.index_of schema "name") = Schema.T_string);
      Alcotest.(check bool) "empty row is nulls" true
        (match (Table.row t 2).(0) with Value.Null -> true | _ -> false))

let test_csv_read_auto_arity_error_line_number () =
  (* blank lines are skipped but still advance the file position: the
     ragged record on file line 5 must be reported as line 5, not by its
     index among the surviving records (which would say line 3) *)
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "a,b\n1,2\n\n\n3,4,5\n";
      close_out oc;
      match Csv_io.read_auto path with
      | exception Failure msg ->
          Alcotest.(check string) "real file line reported"
            "line 5: expected 2 fields, got 3" msg
      | _ -> Alcotest.fail "expected Failure on ragged record")

let test_csv_read_auto_widen_to_string () =
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "mixed\n1\n2.5\nhello\n";
      close_out oc;
      let t = Csv_io.read_auto path in
      let schema = Table.schema t in
      Alcotest.(check bool) "widened to string" true
        (Schema.type_of schema 0 = Schema.T_string))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_csv_unterminated_quote_located () =
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "a,b\n1,\"oops\n";
      close_out oc;
      match Csv_io.read_auto path with
      | exception Failure msg ->
          Alcotest.(check bool) "names line 2" true (contains msg "line 2");
          Alcotest.(check bool) "names field 2" true (contains msg "field 2");
          Alcotest.(check bool) "says unterminated" true
            (contains msg "unterminated quote");
          Alcotest.(check string) "reason located"
            "line 2: unterminated quote in field 2" msg
      | _ -> Alcotest.fail "expected Failure")

let test_csv_strict_ok_roundtrip () =
  let t =
    Table.of_rows schema_ab
      [ [| Value.Int 1; Value.Str "x" |]; [| Value.Int 2; Value.Str "y" |] ]
  in
  let path = Filename.temp_file "repro" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv_io.write path t;
      let back = Csv_io.read_auto path in
      Alcotest.(check int) "rows" 2 (Table.cardinality back))

(* ------------------------------------------------------------------ *)
(* Predicate parser                                                    *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Predicate_parser.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let parse_err s =
  match Predicate_parser.parse s with
  | Ok p -> Alcotest.failf "parse %S unexpectedly gave %s" s (Predicate.to_string p)
  | Error _ -> ()

let test_parser_comparisons () =
  Alcotest.(check string) "gt" "a > 3" (Predicate.to_string (parse_ok "a > 3"));
  Alcotest.(check string) "le" "a <= 3" (Predicate.to_string (parse_ok "a<=3"));
  Alcotest.(check string) "ne <>" "a <> 3" (Predicate.to_string (parse_ok "a <> 3"));
  Alcotest.(check string) "ne !=" "a <> 3" (Predicate.to_string (parse_ok "a != 3"));
  Alcotest.(check string) "float" "a >= 99.5" (Predicate.to_string (parse_ok "a >= 99.5"));
  Alcotest.(check string) "string" "b = 'xyz'" (Predicate.to_string (parse_ok "b = 'xyz'"));
  Alcotest.(check string) "negative int" "a < -4" (Predicate.to_string (parse_ok "a < -4"))

let test_parser_like () =
  (match parse_ok "b LIKE 'The %'" with
  | Predicate.Like_prefix ("b", "The ") -> ()
  | p -> Alcotest.failf "wrong like: %s" (Predicate.to_string p));
  (match parse_ok "b like '%mat%'" with
  | Predicate.Like_contains ("b", "mat") -> ()
  | p -> Alcotest.failf "wrong contains: %s" (Predicate.to_string p));
  (match parse_ok "b LIKE 'exact'" with
  | Predicate.Compare (Predicate.Eq, "b", Value.Str "exact") -> ()
  | p -> Alcotest.failf "wrong equality: %s" (Predicate.to_string p));
  parse_err "b LIKE 'a%b'";
  parse_err "b LIKE 'a%b%'"

let test_parser_boolean_structure () =
  (* AND binds tighter than OR *)
  (match parse_ok "a = 1 OR b = 'x' AND a = 2" with
  | Predicate.Or (_, Predicate.And (_, _)) -> ()
  | p -> Alcotest.failf "precedence wrong: %s" (Predicate.to_string p));
  (match parse_ok "(a = 1 OR b = 'x') AND a = 2" with
  | Predicate.And (Predicate.Or (_, _), _) -> ()
  | p -> Alcotest.failf "parens wrong: %s" (Predicate.to_string p));
  (match parse_ok "NOT a = 1" with
  | Predicate.Not _ -> ()
  | p -> Alcotest.failf "not wrong: %s" (Predicate.to_string p));
  (match parse_ok "true AND FALSE" with
  | Predicate.And (Predicate.True, Predicate.False) -> ()
  | p -> Alcotest.failf "constants wrong: %s" (Predicate.to_string p))

let test_parser_string_escapes () =
  match parse_ok "b = 'it''s'" with
  | Predicate.Compare (Predicate.Eq, "b", Value.Str "it's") -> ()
  | p -> Alcotest.failf "escape wrong: %s" (Predicate.to_string p)

let test_parser_errors () =
  parse_err "";
  parse_err "a >";
  parse_err "a = 'unterminated";
  parse_err "a = 1 extra";
  parse_err "(a = 1";
  parse_err "= 3";
  parse_err "a ~ 3"

let test_parser_parsed_predicates_evaluate () =
  let t = mk_table sample_rows in
  let sel s = Table.cardinality (Predicate.apply (parse_ok s) t) in
  Alcotest.(check int) "a = 1" 2 (sel "a = 1");
  Alcotest.(check int) "disjunction" 3 (sel "a = 1 OR b = 'y'");
  Alcotest.(check int) "like prefix" 1 (sel "b LIKE 'y%'")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let table_gen =
  (* random small tables over a shared tiny domain to force collisions *)
  QCheck.Gen.(
    list_size (int_range 0 30)
      (map2
         (fun a b -> [| Value.Int a; Value.Str (string_of_int b) |])
         (int_range 0 5) (int_range 0 3)))

let prop_pair_count_matches_nested_loop =
  QCheck.Test.make ~count:100 ~name:"hash join count = nested loop count"
    (QCheck.make (QCheck.Gen.pair table_gen table_gen))
    (fun (rows_a, rows_b) ->
      let ta = mk_table rows_a and tb = mk_table rows_b in
      Join.pair_count (Join.unfiltered ta "a") (Join.unfiltered tb "a")
      = nested_loop_count ta "a" tb "a" Predicate.True Predicate.True)

let prop_pair_count_commutative =
  QCheck.Test.make ~count:100 ~name:"join count is symmetric"
    (QCheck.make (QCheck.Gen.pair table_gen table_gen))
    (fun (rows_a, rows_b) ->
      let ta = mk_table rows_a and tb = mk_table rows_b in
      Join.pair_count (Join.unfiltered ta "a") (Join.unfiltered tb "a")
      = Join.pair_count (Join.unfiltered tb "a") (Join.unfiltered ta "a"))

(* Values where container equality and hashing could part: ints past
   ±2^53 and the floats they round to, ±0., NaNs of several bit patterns,
   drawn from a small pool so equal pairs are common. *)
let key_gen =
  let two_53 = 1 lsl 53 in
  let ints =
    [ 0; 1; 3; -3; two_53 - 1; two_53; two_53 + 1; two_53 + 2; -two_53 - 1;
      max_int; min_int ]
  in
  let nans =
    List.map Int64.float_of_bits
      [ 0x7ff8000000000000L; 0x7ff8000000000001L; 0xfff8000000000000L ]
  in
  QCheck.Gen.oneofl
    (Value.Null :: Value.Str "3" :: Value.Float 0.0 :: Value.Float (-0.0)
     :: List.map (fun x -> Value.Int x) ints
    @ List.map (fun x -> Value.Float (float_of_int x)) ints
    @ List.map (fun x -> Value.Float x) nans)

let prop_key_equal_hash_equal =
  QCheck.Test.make ~count:2000 ~name:"Key.equal a b => Key.hash a = Key.hash b"
    (QCheck.make ~print:(fun (a, b) ->
         Printf.sprintf "%s, %s" (Value.to_string a) (Value.to_string b))
       (QCheck.Gen.pair key_gen key_gen))
    (fun (a, b) ->
      (not (Value.Key.equal a b)) || Value.Key.hash a = Value.Key.hash b)

let prop_jvd_in_unit_interval =
  QCheck.Test.make ~count:100 ~name:"jvd in [0,1]"
    (QCheck.make (QCheck.Gen.pair table_gen table_gen))
    (fun (rows_a, rows_b) ->
      let ta = mk_table rows_a and tb = mk_table rows_b in
      let v = Join.jvd ta "a" tb "a" in
      v >= 0.0 && v <= 1.0)

let () =
  Alcotest.run "repro_relation"
    [
      ( "value",
        [
          Alcotest.test_case "null equality" `Quick test_value_null_equality;
          Alcotest.test_case "compare order" `Quick test_value_compare_total_order;
          Alcotest.test_case "containers with null" `Quick test_value_containers_handle_null;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
          Alcotest.test_case "int and float keys apart" `Quick
            test_value_int_float_keys_apart;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate_rejected;
          Alcotest.test_case "empty rejected" `Quick test_schema_empty_rejected;
          Alcotest.test_case "accepts" `Quick test_schema_accepts;
        ] );
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "frequency map" `Quick test_table_frequency_map;
          Alcotest.test_case "group_by" `Quick test_table_group_by;
          Alcotest.test_case "filter/select" `Quick test_table_filter_and_select;
          Alcotest.test_case "unknown column" `Quick test_table_unknown_column;
        ] );
      ( "predicate",
        [
          Alcotest.test_case "compare ops" `Quick test_predicate_compare;
          Alcotest.test_case "null comparisons" `Quick test_predicate_null_comparisons_false;
          Alcotest.test_case "LIKE" `Quick test_predicate_like;
          Alcotest.test_case "boolean composition" `Quick test_predicate_boolean_composition;
          Alcotest.test_case "selectivity" `Quick test_predicate_selectivity;
          Alcotest.test_case "to_string" `Quick test_predicate_to_string;
        ] );
      ( "join",
        [
          Alcotest.test_case "pair count" `Quick test_join_pair_count;
          Alcotest.test_case "filtered pair count" `Quick test_join_pair_count_filtered;
          Alcotest.test_case "nulls never join" `Quick test_join_nulls_never_join;
          Alcotest.test_case "jvd" `Quick test_join_jvd;
          Alcotest.test_case "chain3 count" `Quick test_join_chain3;
          Alcotest.test_case "chain3 with predicate" `Quick test_join_chain3_with_predicate;
          Alcotest.test_case "star count" `Quick test_join_star_count;
        ] );
      ( "predicate_parser",
        [
          Alcotest.test_case "comparisons" `Quick test_parser_comparisons;
          Alcotest.test_case "LIKE" `Quick test_parser_like;
          Alcotest.test_case "boolean structure" `Quick test_parser_boolean_structure;
          Alcotest.test_case "string escapes" `Quick test_parser_string_escapes;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "evaluation" `Quick test_parser_parsed_predicates_evaluate;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "read_auto inference" `Quick test_csv_read_auto_infers_types;
          Alcotest.test_case "read_auto widening" `Quick test_csv_read_auto_widen_to_string;
          Alcotest.test_case "read_auto arity error line numbers" `Quick
            test_csv_read_auto_arity_error_line_number;
          Alcotest.test_case "unterminated quote located" `Quick
            test_csv_unterminated_quote_located;
          Alcotest.test_case "strict ok roundtrip" `Quick
            test_csv_strict_ok_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pair_count_matches_nested_loop;
            prop_pair_count_commutative;
            prop_jvd_in_unit_interval;
            prop_key_equal_hash_equal;
          ] );
    ]
