(* The load path against its reference oracle (Load_oracle, the code it
   replaced, kept verbatim): random CSV texts through every reader, random
   tables and byte ranges through the fingerprint and the store checksum.
   Then the properties the rewrite exists for: a warm read allocates
   little beyond the table it returns, flat views let go of the tables
   they were built from, and the per-domain buffers are safe when domains
   read at once. *)

open Repro_relation
module Prng = Repro_util.Prng
module Oracle = Load_oracle
module G = QCheck.Gen

let same_value a b =
  match (a, b) with
  | Value.Null, Value.Null -> true
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> false

(* Same schema, same fingerprint under both implementations, and every
   cell equal bit for bit (floats by their bits: nan <> nan). *)
let same_table t u =
  Schema.columns (Table.schema t) = Schema.columns (Table.schema u)
  && Int64.equal (Table.fingerprint t) (Oracle.Fingerprint.fingerprint u)
  && Table.cardinality t = Table.cardinality u
  && List.for_all
       (fun i ->
         let r = Table.row t i and s = Table.row u i in
         Array.length r = Array.length s && Array.for_all2 same_value r s)
       (List.init (Table.cardinality t) Fun.id)

(* An exception compares by its printed form: constructor and text. *)
let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_outcome same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error f -> String.equal e f
  | _ -> false

let csv_path =
  lazy
    (let path = Filename.temp_file "repro-load" ".csv" in
     at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
     path)

let with_text text f =
  let path = Lazy.force csv_path in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  f path

(* ------------------------------------------------------------------ *)
(* A grammar of CSV texts covering every quirk of the reader            *)
(* ------------------------------------------------------------------ *)

(* decimal ints around the 18-digit fast path, and ints only the stdlib
   reads (prefixes, underscores, a plus sign, overflow) *)
let int_fields =
  [|
    "0"; "7"; "-3"; "-0"; "007"; "+5"; "1_000"; "0x1F"; "0b101"; "0o17";
    "0u5"; "-"; "--1"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "-4611686018427387905"; "9999999999999999999";
    "123456789012345678"; "-999999999999999999"; "1000000000000000000";
  |]

let float_fields =
  [|
    "1.5"; "-0.0"; "nan"; "-nan"; "inf"; "-inf"; "1e3"; "0x1p3"; ".5"; "1.";
    "1_0.5"; "NaN"; "infinity"; "2.5e-3"; "1e400";
  |]

(* quoted fields (commas, doubled quotes, an empty quote, quoted numbers),
   a '\r' inside a field, spaces around a number *)
let string_fields =
  [|
    "abc"; "a b"; "x\ry"; "caf\xc3\xa9"; " 1"; "1 "; "\"a,b\"";
    "\"say \"\"hi\"\"\""; "\"\""; "\"12\""; "\"-0\""; "\"1.5\""; "a\"b";
  |]

(* ints at the edges of the fingerprint's zero-byte shortcut: every small
   one, both sides of each byte boundary, and the ints it leaves to the
   eight-byte steps *)
let edge_ints =
  Array.concat
    [
      Array.init 301 Fun.id;
      Array.of_list
        (List.concat_map
           (fun k -> [ (1 lsl (8 * k)) - 1; 1 lsl (8 * k) ])
           [ 1; 2; 3; 4; 5; 6; 7 ]);
      [| -1; min_int; max_int |];
    ]

(* strings whose lengths cross a byte boundary, or two *)
let long_string gen = G.(string_size ~gen (oneofa [| 255; 256; 65_536 |]))

let digits n =
  G.(
    map2
      (fun neg ds -> (if neg then "-" else "") ^ ds)
      (frequency [ (3, return false); (1, return true) ])
      (string_size ~gen:(char_range '0' '9') n))

(* mostly within the fast path's 18 digits, now and then past it *)
let digits_field =
  G.frequency
    [ (8, digits (G.int_range 1 18)); (1, digits (G.int_range 19 20)) ]

let field_gen kind =
  let pool a = G.oneofa a in
  let edge_int = G.map string_of_int (pool edge_ints) in
  match kind with
  | 0 ->
      G.frequency
        [
          (12, digits_field);
          (1, pool int_fields);
          (2, edge_int);
          (1, G.return "");
        ]
  | 1 ->
      G.frequency
        [
          (3, digits_field);
          (3, pool float_fields);
          (1, pool int_fields);
          (1, G.return "");
        ]
  | 2 ->
      G.frequency
        [
          (9, pool string_fields);
          (2, digits_field);
          (2, G.return "");
          (1, long_string (G.char_range 'a' 'z'));
        ]
  | _ ->
      G.oneof
        [
          digits_field;
          pool int_fields;
          edge_int;
          pool float_fields;
          pool string_fields;
          G.return "";
        ]

(* what may follow a closing quote: a lone quote after it reads as an
   escaped one *)
let junk_after_quote = [| "x"; "x,1,2"; " ,3"; "\"x"; "\"\""; "\r" |]

let header_names =
  [| "id"; "a"; "b"; "c"; "name"; "x y"; ""; "\"q,n\""; "\"d\"\"q\""; "id\r" |]

let record_gen ~kinds ~faulty =
  let open G in
  let arity = Array.length kinds in
  let* fields = flatten_l (List.init arity (fun j -> field_gen kinds.(j))) in
  (* the last field sometimes closes a quote and keeps going: the rest of
     the line is dropped *)
  let* fields =
    frequency
      [
        (8, return fields);
        ( 1,
          map
            (fun junk ->
              List.mapi
                (fun j f -> if j = arity - 1 then "\"q\"" ^ junk else f)
                fields)
            (oneofa junk_after_quote) );
      ]
  in
  let* fields =
    if not faulty then return fields
    else
      frequency
        [
          (4, return fields);
          (1, return (List.filteri (fun j _ -> j > 0) fields));
          (1, return (fields @ [ "9" ]));
          ( 1,
            map
              (fun k ->
                List.mapi
                  (fun j f -> if j = k mod arity then "\"open" ^ f else f)
                  fields)
              nat );
        ]
  in
  let* line_end = frequency [ (6, return ""); (1, return "\r") ] in
  return (String.concat "," fields ^ line_end)

(* One text and its header's field count (when well-formed). *)
let text_gen =
  let open G in
  let* empty = frequency [ (1, return true); (30, return false) ] in
  if empty then return (1, "")
  else
    let* arity = int_range 1 4 in
    let* kinds = array_repeat arity (int_range 0 3) in
    let* faulty = frequency [ (7, return false); (3, return true) ] in
    let* names =
      flatten_l
        (List.init arity (fun j ->
             frequency
               [
                 (3, return (Printf.sprintf "c%d" j)); (1, oneofa header_names);
               ]))
    in
    let* header =
      if faulty then
        frequency [ (5, return names); (1, return (names @ [ "\"open" ])) ]
      else return names
    in
    let* n = int_range 0 12 in
    let* records = list_repeat n (record_gen ~kinds ~faulty) in
    let* records =
      flatten_l
        (List.map
           (fun r ->
             frequency
               [
                 (8, return [ r ]);
                 (1, return [ ""; r ]);
                 (1, return [ r; ""; "" ]);
               ])
           records)
    in
    let* final_newline = bool in
    return
      ( arity,
        String.concat "\n" (String.concat "," header :: List.concat records)
        ^ if final_newline then "\n" else "" )

let text_arb =
  QCheck.make ~print:(fun (_, text) -> Printf.sprintf "%S" text) text_gen

(* ------------------------------------------------------------------ *)
(* Readers against the oracle                                           *)
(* ------------------------------------------------------------------ *)

(* The oracle typed a column by the order of its rows: an int-only field
   ([0b101], [0o17], [0u5]) ahead of a float made the column float, and
   its own cell then failed [float_of_string], unlocated. There the
   reader must return the cells the schema-given oracle reads under the
   schema it inferred; everywhere else, exactly what the oracle does. *)
let prop_read_auto =
  QCheck.Test.make ~count:3000 ~name:"read_auto matches the oracle" text_arb
    (fun (_, text) ->
      with_text text (fun path ->
          match outcome (fun () -> Oracle.Csv.read_auto path) with
          | Error "Failure(\"float_of_string\")" -> (
              match Csv_io.read_auto path with
              | t -> same_table t (Oracle.Csv.read (Table.schema t) path)
              | exception _ -> false)
          | expected ->
              same_outcome same_table
                (outcome (fun () -> Csv_io.read_auto path))
                expected))

(* The same text with its data lines in another order. *)
let permuted_arb =
  let gen =
    let open G in
    let* _, text = text_gen in
    match String.split_on_char '\n' text with
    | header :: rows ->
        map
          (fun rows -> (text, String.concat "\n" (header :: rows)))
          (shuffle_l rows)
    | [] -> return (text, text)
  in
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%S\n%S" a b) gen

let prop_schema_order_free =
  QCheck.Test.make ~count:3000
    ~name:"permuting data rows never changes the inferred schema"
    permuted_arb (fun (text, permuted) ->
      let schema text =
        with_text text (fun path ->
            Result.map
              (fun t -> Schema.columns (Table.schema t))
              (outcome (fun () -> Csv_io.read_auto path)))
      in
      match (schema text, schema permuted) with
      | Ok a, Ok b -> a = b
      | Error _, Error _ -> true
      | _ -> false)

let test_int_only_fields () =
  let schema text =
    with_text text (fun path ->
        Schema.columns (Table.schema (Csv_io.read_auto path)))
  in
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "%S reads as a string column" text)
        true
        (schema text = [ ("x", Schema.T_string) ]))
    [ "x\n0b101\n1.5\n"; "x\n1.5\n0b101\n"; "x\n0o17\n2e3\n"; "x\n0u5\nnan\n" ];
  Alcotest.(check bool)
    "int-only fields alone still read as int" true
    (schema "x\n0b101\n0o17\n3\n" = [ ("x", Schema.T_int) ])

let types = [| Schema.T_int; Schema.T_float; Schema.T_string |]

let test_missing_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "repro-load-absent.csv"
  in
  let expected = outcome (fun () -> Oracle.Csv.read_auto path) in
  Alcotest.(check bool) "same Sys_error" true
    (same_outcome same_table
       (outcome (fun () -> Csv_io.read_auto path))
       expected);
  Alcotest.(check bool) "it is one" true (Result.is_error expected)

(* ------------------------------------------------------------------ *)
(* The serving reader against read_auto                                 *)
(* ------------------------------------------------------------------ *)

(* Row requests: empty, one row, duplicates, unsorted, every row, and
   indices past any table of the grammar's size, which the reader
   skips. *)
let rows_gen =
  let open G in
  let index = frequency [ (8, int_range 0 14); (1, int_range 15 100) ] in
  frequency
    [
      (1, return (`These [||]));
      (2, map (fun i -> `These [| i |]) index);
      (2, map (fun i -> `These [| i; i; i |]) index);
      (4, map (fun l -> `These (Array.of_list l)) (list_size (int_range 2 8) index));
      (2, return `All);
    ]

(* names of the grammar's headers, and one no header has *)
let column_pool = [| "c0"; "c1"; "c2"; "c3"; "id"; "a"; "x y"; ""; "nope" |]

let request_arb =
  let gen =
    G.triple text_gen rows_gen
      (G.list_size (G.int_range 0 3) (G.oneofa column_pool))
  in
  QCheck.make
    ~print:(fun ((_, text), rows, columns) ->
      Printf.sprintf "%S rows=%s columns=[%s]" text
        (match rows with
        | `All -> "all"
        | `These a ->
            String.concat ";" (Array.to_list (Array.map string_of_int a)))
        (String.concat ";" (List.map (Printf.sprintf "%S") columns)))
    gen

let same_sampled (a : Table.sampled) (b : Table.sampled) =
  Schema.columns a.schema = Schema.columns b.schema
  && a.cardinality = b.cardinality
  && Int64.equal a.fingerprint b.fingerprint
  && a.distinct = b.distinct
  && Table.cardinality a.rows = Table.cardinality b.rows
  && same_table a.rows b.rows

(* [read] then the whole-table statistics, spelled out: what the serving
   reader must return from its one scan when [read] is [read_auto]. The
   fingerprint is the oracle's, so the reader's own copy of the hash steps
   is held to it. *)
let sampled_of read path ~columns ~rows : Table.sampled =
  let t = read path in
  let n = Table.cardinality t in
  let distinct = List.map (fun c -> (c, Table.distinct_count t c)) columns in
  let rows = List.filter (fun i -> i >= 0 && i < n) (Array.to_list rows) in
  {
    schema = Table.schema t;
    cardinality = n;
    fingerprint = Oracle.Fingerprint.fingerprint t;
    distinct;
    rows = Table.of_rows (Table.schema t) (List.map (Table.row t) rows);
  }

let expected_sampled = sampled_of Csv_io.read_auto

let prop_read_rows =
  QCheck.Test.make ~count:3000
    ~name:"read_rows is read_auto's schema, fingerprint, counts and rows"
    request_arb (fun ((_, text), rows, columns) ->
      with_text text (fun path ->
          let rows =
            match rows with
            | `These a -> a
            | `All -> (
                match Csv_io.read_auto path with
                | t -> Array.init (Table.cardinality t) Fun.id
                | exception _ -> [||])
          in
          let expected =
            outcome (fun () -> expected_sampled path ~columns ~rows)
          in
          same_outcome same_sampled
            (outcome (fun () -> Csv_io.read_rows path ~columns ~rows))
            expected
          && same_outcome same_sampled
               (outcome (fun () ->
                    Table.read_rows (Csv_io.read_auto path) ~columns ~rows))
               expected))

(* ------------------------------------------------------------------ *)
(* Scanner edge cases against the oracle                                *)
(* ------------------------------------------------------------------ *)

(* Both readers on [text] against the oracle: [read_auto], and
   [read_rows] of every row (and one past the end) with every header
   column counted. *)
let check_readers name text =
  with_text text (fun path ->
      let check what ok =
        Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true ok
      in
      let expected = outcome (fun () -> Oracle.Csv.read_auto path) in
      check "read_auto"
        (same_outcome same_table
           (outcome (fun () -> Csv_io.read_auto path))
           expected);
      let columns, rows =
        match expected with
        | Ok t ->
            ( List.map fst (Schema.columns (Table.schema t)),
              Array.init (Table.cardinality t + 1) Fun.id )
        | Error _ -> ([], [| 0 |])
      in
      check "read_rows"
        (same_outcome same_sampled
           (outcome (fun () -> Csv_io.read_rows path ~columns ~rows))
           (outcome (fun () ->
                sampled_of Oracle.Csv.read_auto path ~columns ~rows))))

(* The quote of the last line's second field never closes, with and
   without a final newline. Each text is read right after a longer one
   whose next bytes would close it: the scan must stop at the end of the
   file, not at what an earlier read left in the buffer. *)
let test_quote_on_last_line () =
  List.iter
    (fun (before, text) ->
      check_readers "longer text first" before;
      check_readers "quote on the last line" text)
    [
      ("a,b\n1,2\n3,\"x\",9\n", "a,b\n1,2\n3,\"x");
      ("a,b\n1,2\n3,\"x\n\",9\n", "a,b\n1,2\n3,\"x\n");
      ("a,b\n1,2\n\"x,4\",5\n", "a,b\n1,2\n\"x,4");
    ]

(* Every other field of the column is an int the fast path reads. *)
let test_non_int_on_last_line () =
  List.iter
    (check_readers "non-int on the last line")
    [
      "a,b\n1,2\n3,4\n5,x\n";
      "a,b\n1,2\n3,4\n5,x";
      "a,b\n1,2\n3,4\n5,1.5";
      "a,b\n1,2\n3,4\n5,\"6\"\n";
    ]

(* Header fields are names, not data: a header of ints types nothing, and
   the data line right after it still types its columns. *)
let test_digit_header () =
  List.iter
    (check_readers "header of digits")
    [ "1,2\nx,3\n4,5\n"; "10,20\n1,2\n3,4\n"; "1,2\n1.5,3\n"; "-1,2\n" ]

(* Ints the fast path leaves to the stdlib: a sign alone, a plus sign, a
   prefix, underscores, and 19 digits, within the int range and past
   it. *)
let test_stdlib_ints () =
  List.iter
    (check_readers "stdlib ints")
    [
      "x\n-\n";
      "x\n-\n1\n";
      "x,y\n+5,0x1F\n1_000,1234567890123456789\n";
      "x\n-1234567890123456789\n123456789012345678\n";
      "x\n9999999999999999999\n";
      "x\n4611686018427387904\n7\n";
    ]

(* A '\r' stays in its field; blank lines are skipped but keep their line
   numbers, so an error after them names the right line. *)
let test_cr_and_blank_lines () =
  List.iter
    (check_readers "\\r and blank lines")
    [
      "a,b\r\n1,2\r\n\n\n3,4\r\n";
      "a,b\n1,2\n\n\n3\n";
      "a,b\n\n1,2\n\n\n3,x,5\n";
      "a,b\r\n\r\n1,2\r\n";
      "a\n\n\n";
    ]

(* On a fresh domain every buffer starts small, so a 1,500-field line and
   a 20,000-record file grow them in the middle of a scan. *)
let test_growing_tables () =
  let wide =
    let names = List.init 1500 (Printf.sprintf "c%d") in
    let row k = List.init 1500 (fun j -> string_of_int ((j * 7) + k)) in
    String.concat "\n"
      (List.map (String.concat ",") [ names; row 1; row 2; row 3 ])
  in
  let long =
    let b = Buffer.create 200_000 in
    Buffer.add_string b "a,b,c\n";
    for i = 0 to 19_999 do
      Printf.bprintf b "%d,%d,%s\n" i (i mod 97)
        (if i mod 1000 = 999 then "\"q,r\"" else string_of_int (i * 31))
    done;
    Buffer.contents b
  in
  List.iter
    (fun text ->
      Domain.join
        (Domain.spawn (fun () -> check_readers "growing tables" text)))
    [ wide; long ]

(* ------------------------------------------------------------------ *)
(* Fingerprint and store checksum against the oracle                    *)
(* ------------------------------------------------------------------ *)

let value_gen =
  G.(
    frequency
      [
        (1, return Value.Null);
        ( 3,
          map
            (fun i -> Value.Int i)
            (oneof
               [
                 int;
                 oneofa [| min_int; max_int; 0; -1; 1 |];
                 oneofa edge_ints;
               ]) );
        ( 2,
          map
            (fun f -> Value.Float f)
            (oneof
               [
                 float;
                 map Int64.float_of_bits int64;
                 oneofa
                   [|
                     Float.nan; -0.0; 0.0; 1.0; Float.infinity;
                     Float.neg_infinity;
                   |];
               ]) );
        ( 2,
          map
            (fun s -> Value.Str s)
            (frequency
               [
                 (20, string_size ~gen:char (int_range 0 20));
                 (1, long_string char);
               ]) );
      ])

let table_arb =
  let gen =
    let open G in
    let* arity = int_range 1 4 in
    let* tys = array_repeat arity (oneofa types) in
    let* names =
      array_repeat arity (string_size ~gen:printable (int_range 0 6))
    in
    let* rows = list_size (int_range 0 30) (array_repeat arity value_gen) in
    (* duplicate names are for Schema.make to reject, not this property *)
    let columns =
      List.init arity (fun j -> (Printf.sprintf "%d%s" j names.(j), tys.(j)))
    in
    return (Table.of_rows (Schema.make columns) rows)
  in
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" (Table.pp_head ~limit:30) t)
    gen

let prop_fingerprint =
  QCheck.Test.make ~count:2000 ~name:"Table.fingerprint matches the oracle"
    table_arb (fun t ->
      Int64.equal (Table.fingerprint t) (Oracle.Fingerprint.fingerprint t))

(* Int 1 and Float 1.0 are one key of [Value.Tbl]; a column may hold
   both *)
let prop_distinct_count =
  QCheck.Test.make ~count:1000
    ~name:"distinct_count is the size of frequency_map" table_arb (fun t ->
      let column = Schema.name_of (Table.schema t) 0 in
      Table.distinct_count t column
      = Value.Tbl.length (Table.frequency_map t column))

let range_arb =
  let gen =
    let open G in
    let* s = string_size ~gen:char (int_range 0 300) in
    let* pos = int_range 0 (String.length s) in
    let* len = int_range 0 (String.length s - pos) in
    return (s, pos, len)
  in
  QCheck.make
    ~print:(fun (s, pos, len) -> Printf.sprintf "%S %d %d" s pos len)
    gen

let prop_checksum =
  QCheck.Test.make ~count:2000
    ~name:"store checksum over a range matches the oracle" range_arb
    (fun (s, pos, len) ->
      Int64.equal
        (Csdl.Synopsis_store.checksum s pos len)
        (Oracle.Store_checksum.fnv_string_from Oracle.Store_checksum.fnv_offset
           (String.sub s pos len)))

(* ------------------------------------------------------------------ *)
(* Allocation, retention, concurrency                                   *)
(* ------------------------------------------------------------------ *)

let write_ints path ~rows ~seed =
  let prng = Prng.create seed in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "a,b,c,d\n";
      for _ = 1 to rows do
        Printf.fprintf oc "%d,%d,%d,%d\n" (Prng.int prng 1000)
          (Prng.int prng 1_000_000 - 500_000)
          (Prng.int prng 1 lsl 40)
          (Prng.int prng 7)
      done)

(* A warm read allocates the table and little else: no per-line strings,
   no field lists, no file image. *)
let test_read_auto_allocation () =
  let path = Filename.temp_file "repro-load" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_ints path ~rows:2000 ~seed:3;
      ignore (Csv_io.read_auto path : Table.t);
      ignore (Csv_io.read_auto path : Table.t);
      (* [Gc.minor_words] counts the minor heap exactly; the minor count
         of [Gc.counters] lags until the next minor collection *)
      let minor0 = Gc.minor_words () in
      let _, promoted0, major0 = Gc.counters () in
      let table = Csv_io.read_auto path in
      let _, promoted1, major1 = Gc.counters () in
      let minor1 = Gc.minor_words () in
      let allocated =
        minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))
      in
      let words = float_of_int (Obj.reachable_words (Obj.repr table)) in
      if allocated > 1.5 *. words then
        Alcotest.failf "read_auto allocated %.0f words for a %.0f-word table"
          allocated words)

(* The serving reader builds no whole table: a cache miss's read, a few
   rows out of 2,000 and no distinct count, costs a small fraction of the
   table [read_auto] builds. *)
let test_read_rows_allocation () =
  let path = Filename.temp_file "repro-load" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_ints path ~rows:2000 ~seed:5;
      let read () =
        Csv_io.read_rows path ~columns:[] ~rows:[| 3; 1999; 3; 700 |]
      in
      ignore (read ());
      let minor0 = Gc.minor_words () in
      let _, promoted0, major0 = Gc.counters () in
      let sampled = read () in
      let _, promoted1, major1 = Gc.counters () in
      let minor1 = Gc.minor_words () in
      let allocated =
        minor1 -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))
      in
      let words =
        float_of_int (Obj.reachable_words (Obj.repr (Csv_io.read_auto path)))
      in
      Alcotest.(check int) "four rows" 4 (Table.cardinality sampled.rows);
      if allocated > 0.05 *. words then
        Alcotest.failf "read_rows allocated %.0f words; the table is %.0f"
          allocated words)

let table_k_attr_name counts =
  Table.of_rows
    (Schema.make
       [
         ("k", Schema.T_int); ("attr", Schema.T_int); ("name", Schema.T_string);
       ])
    (List.concat_map
       (fun (v, m) ->
         List.init m (fun i ->
             [|
               Value.Int v; Value.Int i; Value.Str (Printf.sprintf "n%d,%d" v i);
             |]))
       counts)

let predicates =
  [
    (Predicate.True, Predicate.True);
    ( Predicate.Compare (Predicate.Lt, "attr", Value.Int 9),
      Predicate.Compare (Predicate.Gt, "attr", Value.Int 0) );
    (Predicate.Like_prefix ("name", "n2"), Predicate.True);
  ]

let estimates flat =
  List.map
    (fun (pred_a, pred_b) ->
      Csdl.Estimate.(value (run_checked_flat ~pred_a ~pred_b flat))
      |> Csdl.Fault.get_ok |> Int64.bits_of_float)
    predicates

(* Decode a store through a resolver that marks every table it returns,
   keeping only the flat views and their estimates. *)
let[@inline never] load_flats ~path ~on_table =
  let resolve name =
    let t = Csv_io.read_auto name in
    on_table t;
    t
  in
  match Csdl.Synopsis_store.read ~resolve_table:resolve ~path with
  | Error e -> Alcotest.failf "read: %s" (Csdl.Fault.error_to_string e)
  | Ok entries ->
      List.map
        (fun (s : Csdl.Synopsis_store.stored) ->
          let flat = Csdl.Synopsis_flat.of_synopsis s.synopsis in
          (flat, estimates flat))
        entries

let test_flats_release_tables () =
  let dir = Filename.temp_dir "repro-load" "" in
  let csv name = Filename.concat dir (name ^ ".csv") in
  let tables =
    [
      ("a", table_k_attr_name [ (1, 12); (2, 7); (3, 20) ]);
      ("b", table_k_attr_name [ (1, 5); (2, 16); (3, 4) ]);
      ("pk", table_k_attr_name (List.init 10 (fun i -> (i, 1))));
      ("fk", table_k_attr_name [ (1, 3); (2, 2); (3, 4) ]);
    ]
  in
  List.iter (fun (name, t) -> Csv_io.write (csv name) t) tables;
  let store = Csdl.Store.create () in
  List.iter
    (fun (key, ta, tb, spec) ->
      let table name = Csv_io.read_auto (csv name) in
      let profile = Csdl.Profile.of_tables (table ta) "k" (table tb) "k" in
      let estimator = Csdl.Estimator.prepare spec ~theta:0.5 profile in
      Csdl.Store.add store ~key ~table_a:(csv ta) ~table_b:(csv tb) estimator
        (Csdl.Estimator.draw estimator (Prng.create 7)))
    [
      ("a-a", "a", "a", Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff);
      ("a-b", "a", "b", Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta);
      ("pk-fk", "pk", "fk", Csdl.Spec.cs2l);
    ];
  let path = Filename.concat dir "s.bin" in
  Csdl.Store.save store path;
  let resolved = ref 0 and finalised = ref 0 in
  let flats =
    load_flats ~path ~on_table:(fun t ->
        incr resolved;
        Gc.finalise (fun (_ : Table.t) -> incr finalised) t)
  in
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int)
    "every resolved table was collected" !resolved !finalised;
  Alcotest.(check int) "one resolve per distinct table" 4 !resolved;
  List.iter
    (fun (flat, before) ->
      Alcotest.(check (list int64))
        "estimates unchanged" before (estimates flat))
    flats;
  List.iter (fun (name, _) -> Sys.remove (csv name)) tables;
  Sys.remove path;
  Sys.rmdir dir

(* Four domains read four different files at once, each with its own
   buffers: every result equals a sequential read of the same file. *)
let test_read_auto_domains () =
  let paths =
    List.init 4 (fun i ->
        let path = Filename.temp_file "repro-load" ".csv" in
        if i = 3 then
          Csv_io.write path
            (table_k_attr_name (List.init 300 (fun v -> (v, 1 + (v mod 5)))))
        else write_ints path ~rows:(500 * (i + 1)) ~seed:i;
        path)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove paths)
    (fun () ->
      let sequential = List.map Oracle.Csv.read_auto paths in
      let domains =
        List.map
          (fun path ->
            Domain.spawn (fun () ->
                List.init 5 (fun _ -> Csv_io.read_auto path)))
          paths
      in
      List.iter2
        (fun expected d ->
          List.iter
            (fun t ->
              Alcotest.(check bool) "same table as the sequential read" true
                (same_table t expected))
            (Domain.join d))
        sequential domains)

let () =
  Alcotest.run "load"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_read_auto;
            prop_fingerprint;
            prop_distinct_count;
            prop_checksum;
            prop_read_rows;
          ]
        @ [ Alcotest.test_case "missing file" `Quick test_missing_file ] );
      ( "inference",
        [
          QCheck_alcotest.to_alcotest prop_schema_order_free;
          Alcotest.test_case "int-only fields beside non-ints" `Quick
            test_int_only_fields;
        ] );
      ( "resources",
        [
          Alcotest.test_case "warm read_auto allocates about its table" `Quick
            test_read_auto_allocation;
          Alcotest.test_case "flats keep no base table" `Quick
            test_flats_release_tables;
          Alcotest.test_case "read_auto on 4 domains" `Quick
            test_read_auto_domains;
          Alcotest.test_case "read_rows builds no whole table" `Quick
            test_read_rows_allocation;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "quote opening on the last line" `Quick
            test_quote_on_last_line;
          Alcotest.test_case "non-int field only on the last line" `Quick
            test_non_int_on_last_line;
          Alcotest.test_case "header of digits" `Quick test_digit_header;
          Alcotest.test_case "ints only the stdlib reads" `Quick
            test_stdlib_ints;
          Alcotest.test_case "carriage returns and blank lines" `Quick
            test_cr_and_blank_lines;
          Alcotest.test_case "tables grow mid-scan" `Quick test_growing_tables;
        ] );
    ]
