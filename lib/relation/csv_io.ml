let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let encode_field v =
  match v with
  | Value.Null -> ""
  | _ ->
      let s = Value.to_string v in
      if needs_quoting s then
        let buffer = Buffer.create (String.length s + 2) in
        Buffer.add_char buffer '"';
        String.iter
          (fun c ->
            if c = '"' then Buffer.add_string buffer "\"\""
            else Buffer.add_char buffer c)
          s;
        Buffer.add_char buffer '"';
        Buffer.contents buffer
      else s

let write path table =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let schema = Table.schema table in
      let names = List.map fst (Schema.columns schema) in
      output_string oc (String.concat "," names);
      output_char oc '\n';
      Table.iter
        (fun row ->
          let fields = Array.to_list (Array.map encode_field row) in
          output_string oc (String.concat "," fields);
          output_char oc '\n')
        table)

type row_error = { line : int; reason : string }

type lenient = { table : Table.t; skipped : row_error list; skipped_count : int }

(* ---------------- the scanner ---------------- *)

(* A domain's load state, reused across reads: the file image, then what
   one pass over it found — every field's bounds and every record. Each
   array grows to the largest file the domain has read and never shrinks,
   so a warm read allocates the table it returns and little else. *)
type scan = {
  mutable image : Bytes.t;
  mutable fields : int array;
      (** per field: start and length in [image], and its int value when
          the field reads [-?[0-9]{1,18}], else [min_int] *)
  mutable records : int array;
      (** per record: file line, first field, field count — or [-k] when
          field [k] opens a quote the line never closes *)
  mutable count : int;  (** the count of the record scanned last *)
}

let slot =
  Repro_util.Scratch.make (fun () ->
      { image = Bytes.create 65536; fields = [||]; records = [||]; count = 0 })

(* The whole file, read to end of file rather than to a length taken up
   front, so a pipe or a FIFO can be read too. *)
let load s path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec fill len =
        if len = Bytes.length s.image then begin
          let bigger = Bytes.create (2 * len) in
          Bytes.blit s.image 0 bigger 0 len;
          s.image <- bigger
        end;
        match input ic s.image len (Bytes.length s.image - len) with
        | 0 -> len
        | n -> fill (len + n)
      in
      fill 0)

let add_field s k start len value =
  if (3 * k) + 2 >= Array.length s.fields then
    s.fields <- Repro_util.Scratch.grow s.fields ((3 * k) + 3) 0;
  s.fields.(3 * k) <- start;
  s.fields.((3 * k) + 1) <- len;
  s.fields.((3 * k) + 2) <- value

(* [-?[0-9]{1,18}] is a base-10 int that cannot overflow, so the digits
   the scanner accumulated ([acc], [-1] once a non-digit was seen) give
   exactly what [int_of_string] gives. Any other field is [min_int], which
   has 19 digits and so never comes out of this form: those go to the
   stdlib. *)
let plain_value b start stop acc =
  let neg = stop > start && Bytes.unsafe_get b start = '-' in
  let digits = stop - start - if neg then 1 else 0 in
  if acc < 0 || digits < 1 || digits > 18 then min_int
  else if neg then -acc
  else acc

let finish s count i len =
  s.count <- count;
  if i < len then i + 1 else len

let rec line_end b i len =
  if i < len && Bytes.unsafe_get b i <> '\n' then line_end b (i + 1) len
  else i

(* Split the line starting at [b.[i]] into fields [k], [k + 1], ... of
   [s.fields], set [s.count] to its field count, or to [-j] for an
   unterminated quote in its field [j], and return where the next line
   starts. A line ends at '\n' (a '\r' stays in its field). A quoted
   field is unescaped in place (a doubled quote becomes one), which only
   ever shortens it; after its closing quote anything but a comma ends the
   record, dropping the rest of the line. Top-level functions with every
   bound passed explicitly: no closure is allocated per record. *)
let rec scan_field s b len first i k =
  if i >= len then scan_plain s b len first i i k 0
  else
    match Bytes.unsafe_get b i with
    | '"' -> scan_quoted s b len first (i + 1) (i + 1) (i + 1) k
    | '-' -> scan_plain s b len first i (i + 1) k 0
    | _ -> scan_plain s b len first i i k 0

and scan_plain s b len first start i k acc =
  let c = if i < len then Bytes.unsafe_get b i else '\n' in
  if c <> ',' && c <> '\n' then
    scan_plain s b len first start (i + 1) k
      (if acc >= 0 && c >= '0' && c <= '9' then (10 * acc) + Char.code c - 48
       else -1)
  else begin
    add_field s k start (i - start) (plain_value b start i acc);
    if c = ',' then scan_field s b len first (i + 1) (k + 1)
    else finish s (k + 1 - first) i len
  end

and scan_quoted s b len first start r w k =
  if r >= len || Bytes.unsafe_get b r = '\n' then
    finish s (-(k + 1 - first)) r len
  else
    match Bytes.unsafe_get b r with
    | '"' when r + 1 < len && Bytes.unsafe_get b (r + 1) = '"' ->
        Bytes.unsafe_set b w '"';
        scan_quoted s b len first start (r + 2) (w + 1) k
    | '"' ->
        add_field s k start (w - start) min_int;
        if r + 1 < len && Bytes.unsafe_get b (r + 1) = ',' then
          scan_field s b len first (r + 2) (k + 1)
        else finish s (k + 1 - first) (line_end b (r + 1) len) len
    | c ->
        Bytes.unsafe_set b w c;
        scan_quoted s b len first start (r + 1) (w + 1) k

(* One record per line: line 1, the header, always; a later line only when
   it is not empty, though every line counts in the line numbers. Returns
   the record count. *)
let scan_image s len =
  let b = s.image in
  let rec line pos line_no n nfields =
    if pos >= len then n
    else if Bytes.unsafe_get b pos = '\n' && line_no > 1 then
      line (pos + 1) (line_no + 1) n nfields
    else begin
      if (3 * n) + 2 >= Array.length s.records then
        s.records <- Repro_util.Scratch.grow s.records ((3 * n) + 3) 0;
      let next = scan_field s b len nfields pos nfields in
      s.records.(3 * n) <- line_no;
      s.records.((3 * n) + 1) <- nfields;
      s.records.((3 * n) + 2) <- s.count;
      line next (line_no + 1) (n + 1) (nfields + max 0 s.count)
    end
  in
  line 0 1 0 0

let line_of s r = s.records.(3 * r)
let first_of s r = s.records.((3 * r) + 1)
let count_of s r = s.records.((3 * r) + 2)
let field_len s f = s.fields.((3 * f) + 1)
let fast_int s f = s.fields.((3 * f) + 2)
let field_string s f = Bytes.sub_string s.image s.fields.(3 * f) (field_len s f)

let unterminated s r =
  Printf.sprintf "line %d: unterminated quote in field %d" (line_of s r)
    (-count_of s r)

let bad_arity s r arity =
  Printf.sprintf "line %d: expected %d fields, got %d" (line_of s r) arity
    (count_of s r)

(* ---------------- fields to values ---------------- *)

(* A column's type is the narrowest one that every field fits, so it
   does not depend on row order. [fit] holds what the column's fields
   read so far all fit, as two bits: 1 when [int_of_string] reads each,
   2 when [float_of_string] does; [fits s f fit] narrows it by field [f].
   An empty field, or one the scanner read as a decimal int, fits both.
   [0b101], [0o17] or [0u5] fit int but not float, so a column mixing
   them with [1.5] fits neither and reads as string. *)
let fits s f fit =
  if field_len s f = 0 || fast_int s f <> min_int then fit
  else
    let raw = field_string s f in
    (if fit land 1 <> 0 && int_of_string_opt raw <> None then 1 else 0)
    lor if fit land 2 <> 0 && float_of_string_opt raw <> None then 2 else 0

let type_of_fit fit =
  if fit land 1 <> 0 then Schema.T_int
  else if fit land 2 <> 0 then Schema.T_float
  else Schema.T_string

let cell ty s f =
  if field_len s f = 0 then Value.Null
  else
    match ty with
    | Schema.T_int ->
        let v = fast_int s f in
        Value.Int (if v <> min_int then v else int_of_string (field_string s f))
    | Schema.T_float -> Value.Float (float_of_string (field_string s f))
    | Schema.T_string -> Value.Str (field_string s f)

let type_name = function
  | Schema.T_int -> "int"
  | Schema.T_float -> "float"
  | Schema.T_string -> "string"

(* ---------------- schema-given readers ---------------- *)

(* Record [r] as a row under [types]; all failure modes become a located
   reason: an unterminated quote, then the arity, then the first field
   that does not parse. *)
let parse_record s ~arity ~types r =
  let line = line_of s r and first = first_of s r in
  if count_of s r < 0 then Error { line; reason = unterminated s r }
  else if count_of s r <> arity then
    Error { line; reason = bad_arity s r arity }
  else
    let row = Array.make arity Value.Null in
    let rec fill j =
      if j = arity then Ok row
      else
        match cell types.(j) s (first + j) with
        | v ->
            row.(j) <- v;
            fill (j + 1)
        | exception _ ->
            Error
              {
                line;
                reason =
                  Printf.sprintf "line %d: bad %s field %d: %S" line
                    (type_name types.(j)) (j + 1)
                    (field_string s (first + j));
              }
    in
    fill 0

(* Shared record loop: [on_error] decides strict (stop) vs lenient
   (skip). The header is discarded unparsed; the schema is
   authoritative. *)
let fold_records schema path ~on_row ~on_error =
  Repro_util.Scratch.with_ slot @@ fun s ->
  let n = scan_image s (load s path) in
  if n = 0 then
    ignore (on_error { line = 1; reason = "empty CSV file" } : bool);
  let arity = Schema.arity schema in
  let types = Array.init arity (Schema.type_of schema) in
  let rec go r =
    if r < n then
      match parse_record s ~arity ~types r with
      | Ok row ->
          on_row row;
          go (r + 1)
      | Error e -> if on_error e then go (r + 1)
  in
  go 1

let read_lenient schema path =
  let rows = ref [] and skipped = ref [] in
  fold_records schema path
    ~on_row:(fun row -> rows := row :: !rows)
    ~on_error:(fun e ->
      skipped := e :: !skipped;
      true);
  let skipped = List.rev !skipped in
  {
    table = Table.create schema (Array.of_list (List.rev !rows));
    skipped;
    skipped_count = List.length skipped;
  }

let read_strict schema path =
  let rows = ref [] and first_error = ref None in
  fold_records schema path
    ~on_row:(fun row -> rows := row :: !rows)
    ~on_error:(fun e ->
      first_error := Some e;
      false);
  match !first_error with
  | Some e -> Error e
  | None -> Ok (Table.create schema (Array.of_list (List.rev !rows)))

let read schema path =
  match read_strict schema path with
  | Ok table -> table
  | Error { reason; _ } -> failwith reason

(* ---------------- schema inference ---------------- *)

(* Scan [path] into [s] and type its columns: the record count (header
   included), each column's type and the schema. Every failure of
   [read_auto] is raised here, in its order. *)
let infer s path =
  let n = scan_image s (load s path) in
  if n = 0 then failwith "empty CSV file";
  (* an unterminated quote anywhere in the file is reported before any
     arity error *)
  for r = 0 to n - 1 do
    if count_of s r < 0 then failwith (unterminated s r)
  done;
  let arity = count_of s 0 in
  let fit = Array.make arity 3 in
  for r = 1 to n - 1 do
    if count_of s r <> arity then failwith (bad_arity s r arity);
    for j = 0 to arity - 1 do
      (* a column already down to string parses no further field *)
      if fit.(j) <> 0 then fit.(j) <- fits s (first_of s r + j) fit.(j)
    done
  done;
  let types = Array.map type_of_fit fit in
  let schema =
    Schema.make (List.init arity (fun j -> (field_string s j, types.(j))))
  in
  (n, types, schema)

(* Record [r] as a row under the inferred [types]. *)
let row_of s types r =
  let arity = Array.length types in
  let row = Array.make arity Value.Null and first = first_of s r in
  for j = 0 to arity - 1 do
    row.(j) <- cell types.(j) s (first + j)
  done;
  row

let read_auto path =
  Repro_util.Scratch.with_ slot @@ fun s ->
  let n, types, schema = infer s path in
  let rows = Array.make (n - 1) [||] in
  for r = 1 to n - 1 do
    rows.(r - 1) <- row_of s types r
  done;
  Table.create schema rows

(* ---------------- sampled rows ---------------- *)

(* The int a field of an int column reads as: the scanner's value when it
   took the fast path, else the stdlib's. *)
let int_field s f =
  let v = fast_int s f in
  if v <> min_int then v else int_of_string (field_string s f)

(* The FNV-1a steps of [Table.fingerprint], repeated here so that they
   inline into the cell loop below and keep its accumulator unboxed:
   modules are compiled [-opaque] in dev builds, which stops inlining
   across them. test_load.ml holds the two to the same bytes. *)
let[@inline] fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

let[@inline] fnv_int64 h x =
  let h = fnv_byte h (Int64.to_int x) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 8)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 16)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 24)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 32)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 40)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 48)) in
  fnv_byte h (Int64.to_int (Int64.shift_right_logical x 56))

(* [Table.fingerprint] of the table [read_auto] builds, hashed from the
   fields: per cell the tag byte and payload [cell] would produce, in row
   order. Only a float cell, or an int the scanner's fast path did not
   read, allocates: the substring the stdlib parses. *)
let fingerprint_fields s n types schema =
  let h = ref (Table.fingerprint_header ~cardinality:(n - 1) schema) in
  let b = s.image in
  for r = 1 to n - 1 do
    let first = first_of s r in
    for j = 0 to Array.length types - 1 do
      let f = first + j in
      let len = field_len s f in
      if len = 0 then h := fnv_byte !h 0
      else
        match types.(j) with
        | Schema.T_int ->
            h := fnv_int64 (fnv_byte !h 1) (Int64.of_int (int_field s f))
        | Schema.T_float ->
            h :=
              fnv_int64 (fnv_byte !h 2)
                (Int64.bits_of_float (float_of_string (field_string s f)))
        | Schema.T_string ->
            h := fnv_int64 (fnv_byte !h 3) (Int64.of_int len);
            let start = s.fields.(3 * f) in
            for i = start to start + len - 1 do
              h := fnv_byte !h (Char.code (Bytes.unsafe_get b i))
            done
    done
  done;
  !h

(* [Table.distinct_count] of column [j] of the table [read_auto] builds:
   the same cells into the same kind of table, without the rows. *)
let distinct_fields s n types j =
  let seen = Value.Tbl.create 1024 in
  for r = 1 to n - 1 do
    let f = first_of s r + j in
    if field_len s f > 0 then begin
      let v = cell types.(j) s f in
      if not (Value.Tbl.mem seen v) then Value.Tbl.add seen v ()
    end
  done;
  Value.Tbl.length seen

let read_rows path ~columns ~rows =
  Repro_util.Scratch.with_ slot @@ fun s ->
  let n, types, schema = infer s path in
  let cardinality = n - 1 in
  let picked =
    Array.of_seq
      (Seq.filter_map
         (fun i ->
           if i >= 0 && i < cardinality then Some (row_of s types (i + 1))
           else None)
         (Array.to_seq rows))
  in
  let rows = Table.create schema picked in
  let distinct =
    List.map
      (fun c -> (c, distinct_fields s n types (Table.column_index rows c)))
      columns
  in
  {
    Table.schema;
    cardinality;
    fingerprint = fingerprint_fields s n types schema;
    distinct;
    rows;
  }
