(* Reference oracle for the load path: the CSV readers, the table
   fingerprint and the store checksum as they stood before the one-pass
   scanner, kept verbatim (two passes of [input_line] and per-record field
   lists, boxed FNV-1a steps). The schema-given [read], which only
   [prop_read_auto] still asks for, fails on its first malformed row
   directly instead of through the strict reader the library dropped. The
   fingerprint reads rows through [Table]'s accessors, [Table.t] being
   abstract. The library must match it bit for bit: the same tables, the
   same exceptions with the same texts, the same hashes. *)

[@@@ocaml.warning "-32"]

open Repro_relation

module Csv = struct
  type row_error = { line : int; reason : string }

  (* Split one CSV record into fields, handling quoted fields. Assumes the
     record contains no embedded newlines (we never write any: generated data
     has no newlines in strings). [line_number] is only used to locate
     errors. *)
  let split_record_checked ~line_number line =
    let fields = ref [] in
    let count = ref 0 in
    let buffer = Buffer.create 32 in
    let n = String.length line in
    let rec field i =
      if i >= n then finish i
      else if line.[i] = '"' then quoted (i + 1)
      else plain i
    and plain i =
      if i >= n || line.[i] = ',' then finish i
      else begin
        Buffer.add_char buffer line.[i];
        plain (i + 1)
      end
    and quoted i =
      if i >= n then
        Error
          (Printf.sprintf "line %d: unterminated quote in field %d" line_number
             (!count + 1))
      else if line.[i] = '"' then
        if i + 1 < n && line.[i + 1] = '"' then begin
          Buffer.add_char buffer '"';
          quoted (i + 2)
        end
        else finish (i + 1)
      else begin
        Buffer.add_char buffer line.[i];
        quoted (i + 1)
      end
    and finish i =
      fields := Buffer.contents buffer :: !fields;
      incr count;
      Buffer.clear buffer;
      if i < n && line.[i] = ',' then field (i + 1) else Ok (List.rev !fields)
    in
    field 0

  let split_record ?(line_number = 0) line =
    match split_record_checked ~line_number line with
    | Ok fields -> fields
    | Error reason -> failwith reason

  let parse_field ty raw =
    if String.equal raw "" then Value.Null
    else
      match ty with
      | Schema.T_int -> Value.Int (int_of_string raw)
      | Schema.T_float -> Value.Float (float_of_string raw)
      | Schema.T_string -> Value.Str raw

  let type_name = function
    | Schema.T_int -> "int"
    | Schema.T_float -> "float"
    | Schema.T_string -> "string"

  (* Parse one record into a row under [types]; all failure modes become a
     located reason. *)
  let parse_record ~line_number ~arity ~types line =
    match split_record_checked ~line_number line with
    | Error reason -> Error { line = line_number; reason }
    | Ok fields ->
        if List.length fields <> arity then
          Error
            {
              line = line_number;
              reason =
                Printf.sprintf "line %d: expected %d fields, got %d" line_number
                  arity (List.length fields);
            }
        else begin
          let row = Array.make arity Value.Null in
          let bad = ref None in
          List.iteri
            (fun j raw ->
              if !bad = None then
                match parse_field types.(j) raw with
                | v -> row.(j) <- v
                | exception _ ->
                    bad :=
                      Some
                        {
                          line = line_number;
                          reason =
                            Printf.sprintf "line %d: bad %s field %d: %S"
                              line_number (type_name types.(j)) (j + 1) raw;
                        })
            fields;
          match !bad with None -> Ok row | Some e -> Error e
        end

  (* The scan loop: [on_error] says whether to go on past a bad row. *)
  let fold_records schema path ~on_row ~on_error =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let arity = Schema.arity schema in
        let types = Array.init arity (Schema.type_of schema) in
        (match input_line ic with
        | (_ : string) -> () (* header discarded; schema is authoritative *)
        | exception End_of_file ->
            ignore (on_error { line = 1; reason = "empty CSV file" } : bool));
        let line_number = ref 1 in
        let stop = ref false in
        (try
           while not !stop do
             let line = input_line ic in
             incr line_number;
             if not (String.equal line "") then
               match parse_record ~line_number:!line_number ~arity ~types line with
               | Ok row -> on_row row
               | Error e -> if not (on_error e) then stop := true
           done
         with End_of_file -> ()))

  (* The schema-given read: the first malformed row fails with its
     located reason. *)
  let read schema path =
    let rows = ref [] in
    fold_records schema path
      ~on_row:(fun row -> rows := row :: !rows)
      ~on_error:(fun { reason; _ } -> failwith reason);
    Table.create schema (Array.of_list (List.rev !rows))

  let read_auto path =
    (* Two passes: sniff column types, then parse with the inferred schema. *)
    let ic = open_in path in
    let header, records =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let header =
            match input_line ic with
            | line -> split_record ~line_number:1 line
            | exception End_of_file -> failwith "empty CSV file"
          in
          (* keep each record's real file line: blank lines are skipped, so
             a record's position in the list is not its line number *)
          let records = ref [] in
          let line_number = ref 1 in
          (try
             while true do
               let line = input_line ic in
               incr line_number;
               if not (String.equal line "") then
                 records :=
                   (!line_number, split_record ~line_number:!line_number line)
                   :: !records
             done
           with End_of_file -> ());
          (header, List.rev !records))
    in
    let arity = List.length header in
    let rank = function Schema.T_int -> 0 | Schema.T_float -> 1 | Schema.T_string -> 2 in
    let widen current field =
      if String.equal field "" then current
      else
        let fits ty =
          match ty with
          | Schema.T_int -> int_of_string_opt field <> None
          | Schema.T_float -> float_of_string_opt field <> None
          | Schema.T_string -> true
        in
        let candidates = [ Schema.T_int; Schema.T_float; Schema.T_string ] in
        List.find
          (fun ty -> rank ty >= rank current && fits ty)
          candidates
    in
    let types = Array.make arity Schema.T_int in
    List.iter
      (fun (line_number, fields) ->
        if List.length fields <> arity then
          failwith
            (Printf.sprintf "line %d: expected %d fields, got %d" line_number
               arity (List.length fields));
        List.iteri (fun j field -> types.(j) <- widen types.(j) field) fields)
      records;
    let schema = Schema.make (List.mapi (fun j name -> (name, types.(j))) header) in
    let rows =
      List.map
        (fun (_, fields) ->
          let row = Array.make arity Value.Null in
          List.iteri (fun j field -> row.(j) <- parse_field types.(j) field) fields;
          row)
        records
    in
    Table.create schema (Array.of_list rows)
end

module Fingerprint = struct
  (* FNV-1a over a canonical byte rendering of the schema and every cell.
     64-bit, content-only: two tables with equal schemas and equal rows in
     equal order fingerprint identically on any platform. Used by the
     synopsis store to refuse rehydrating sampled row indices against data
     that is not the data they were drawn from. *)
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let fnv_byte h b =
    Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

  let fnv_int64 h x =
    let h = ref h in
    for shift = 0 to 7 do
      h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
    done;
    !h

  let fnv_string h s =
    let h = ref (fnv_int64 h (Int64.of_int (String.length s))) in
    String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
    !h

  let fnv_value h v =
    match v with
    | Value.Null -> fnv_byte h 0
    | Value.Int x -> fnv_int64 (fnv_byte h 1) (Int64.of_int x)
    | Value.Float x -> fnv_int64 (fnv_byte h 2) (Int64.bits_of_float x)
    | Value.Str s -> fnv_string (fnv_byte h 3) s

  let fingerprint t =
    let h = ref (fnv_int64 fnv_offset (Int64.of_int (Table.cardinality t))) in
    List.iter
      (fun (name, ty) ->
        h := fnv_string !h name;
        h :=
          fnv_byte !h
            (match ty with
            | Schema.T_int -> 0
            | Schema.T_float -> 1
            | Schema.T_string -> 2))
      (Schema.columns (Table.schema t));
    Table.iter (fun row -> Array.iter (fun v -> h := fnv_value !h v) row) t;
    !h
end

module Store_checksum = struct
  let fnv_offset = 0xcbf29ce484222325L
  let fnv_prime = 0x100000001b3L

  let fnv_byte h b =
    Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

  let fnv_string_from h s =
    let h = ref h in
    String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
    !h
end
