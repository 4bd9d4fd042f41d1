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

(* ---------------- the scanner ---------------- *)

(* A domain's load state, reused across reads: the file image, then what
   one pass over it found — every field's bounds, every record and the
   columns whose fields need parsing. Each buffer grows to the largest
   file the domain has read and never shrinks, so a warm read allocates
   the table it returns and little else. *)
type scan = {
  mutable image : Bytes.t;
  mutable fields : int array;
      (** per field: start and length in [image], and its int value when
          the field reads [-?[0-9]{1,18}], else [min_int] *)
  mutable records : int array;
      (** per record: file line, first field, field count — or [-k] when
          field [k] opens a quote the line never closes *)
  mutable flags : Bytes.t;
      (** per header column: non-zero when a data field of it is neither
          empty nor a fast int *)
}

let slot =
  Repro_util.Scratch.make (fun () ->
      {
        image = Bytes.create 65536;
        fields = [||];
        records = [||];
        flags = Bytes.empty;
      })

let release_buffers () = Repro_util.Scratch.release slot

(* The whole file, read to end of file rather than to a length taken up
   front, so a pipe or a FIFO can be read too. The image always keeps a
   byte past the file's end, where the scanner puts its sentinel. *)
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

let[@inline] set_field (fields : int array) k start len value =
  Array.unsafe_set fields (3 * k) start;
  Array.unsafe_set fields ((3 * k) + 1) len;
  Array.unsafe_set fields ((3 * k) + 2) value

let is_digit c = c >= '0' && c <= '9'

(* Split the image's first [len] bytes into records and fields, and return
   the record count. One record per line: line 1, the header, always; a
   later line only when it is not empty, though every line counts in the
   line numbers. A line ends at '\n' (a '\r' stays in its field); a '\n'
   written at [len] ends the last line, so no loop tests for the end of
   the image.

   An unquoted field is read by two loops: its leading digits (after an
   optional '-'), then its other bytes. With no other byte and 1 to 18
   digits it is a base-10 int that cannot overflow, so the digits give
   exactly what [int_of_string] gives; any other field's value is
   [min_int], which has 19 digits and so never comes out of this form.
   A field that opens with a quote is unescaped in place (a doubled quote
   becomes one), which only ever shortens it; after its closing quote
   anything but a comma ends the record, dropping the rest of the line.
   A data field of column [j] that is neither empty nor a fast int flags
   [j] (the header flags nothing), so typing parses only flagged
   columns. *)
let scan_image s len =
  let b = s.image in
  Bytes.unsafe_set b len '\n';
  let n = ref 0 and k = ref 0 and pos = ref 0 and line = ref 1 in
  let width = ref 0 in
  while !pos < len do
    if !line > 1 && Bytes.unsafe_get b !pos = '\n' then begin
      incr pos;
      incr line
    end
    else begin
      let first = !k and i = ref !pos in
      (* 0 while the line has fields left *)
      let count = ref 0 in
      while !count = 0 do
        (* room for field [k] before its bytes are read: no call is made
           while they are *)
        if (3 * !k) + 2 >= Array.length s.fields then
          s.fields <- Repro_util.Scratch.grow s.fields ((3 * !k) + 3) 0;
        let start = !i in
        if Bytes.unsafe_get b start = '"' then begin
          let r = ref (start + 1) and w = ref (start + 1) in
          (* up to the closing quote, a doubled quote copied as one *)
          while
            let c = Bytes.unsafe_get b !r in
            c <> '\n' && (c <> '"' || Bytes.unsafe_get b (!r + 1) = '"')
          do
            let c = Bytes.unsafe_get b !r in
            Bytes.unsafe_set b !w c;
            r := !r + if c = '"' then 2 else 1;
            incr w
          done;
          if Bytes.unsafe_get b !r = '\n' then begin
            count := -(!k + 1 - first);
            i := !r
          end
          else begin
            let flen = !w - start - 1 and r = !r + 1 in
            set_field s.fields !k (start + 1) flen min_int;
            if !n > 0 && flen > 0 && !k - first < !width then
              Bytes.unsafe_set s.flags (!k - first) '\001';
            if Bytes.unsafe_get b r = ',' then begin
              i := r + 1;
              incr k
            end
            else begin
              count := !k + 1 - first;
              i := r;
              while Bytes.unsafe_get b !i <> '\n' do
                incr i
              done
            end
          end
        end
        else begin
          let neg = Bytes.unsafe_get b start = '-' in
          let d = if neg then start + 1 else start in
          let e = ref d and acc = ref 0 in
          while is_digit (Bytes.unsafe_get b !e) do
            acc := (10 * !acc) + Char.code (Bytes.unsafe_get b !e) - 48;
            incr e
          done;
          let digits_end = !e in
          while
            let c = Bytes.unsafe_get b !e in
            c <> ',' && c <> '\n'
          do
            incr e
          done;
          let stop = !e and digits = digits_end - d in
          if stop = digits_end && digits >= 1 && digits <= 18 then
            set_field s.fields !k start (stop - start)
              (if neg then - !acc else !acc)
          else begin
            set_field s.fields !k start (stop - start) min_int;
            if !n > 0 && stop > start && !k - first < !width then
              Bytes.unsafe_set s.flags (!k - first) '\001'
          end;
          if Bytes.unsafe_get b stop = ',' then begin
            i := stop + 1;
            incr k
          end
          else begin
            count := !k + 1 - first;
            i := stop
          end
        end
      done;
      let r = !n in
      if (3 * r) + 2 >= Array.length s.records then
        s.records <- Repro_util.Scratch.grow s.records ((3 * r) + 3) 0;
      s.records.(3 * r) <- !line;
      s.records.((3 * r) + 1) <- first;
      s.records.((3 * r) + 2) <- !count;
      if r = 0 && !count > 0 then begin
        width := !count;
        if Bytes.length s.flags < !width then s.flags <- Bytes.create !width;
        Bytes.fill s.flags 0 !width '\000'
      end;
      k := first + max 0 !count;
      n := r + 1;
      pos := !i + 1;
      incr line
    end
  done;
  !n

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

(* ---------------- schema inference ---------------- *)

(* Scan [path] into [s] and type its columns: the record count (header
   included), each column's type and the schema. Every failure of
   [read_auto] is raised here, in its order. A column the scan did not
   flag holds only empty fields and fast ints, so it is an int column
   without looking at its fields again. *)
let infer s path =
  let n = scan_image s (load s path) in
  if n = 0 then failwith "empty CSV file";
  (* an unterminated quote anywhere in the file is reported before any
     arity error *)
  for r = 0 to n - 1 do
    if count_of s r < 0 then failwith (unterminated s r)
  done;
  let arity = count_of s 0 in
  for r = 1 to n - 1 do
    if count_of s r <> arity then failwith (bad_arity s r arity)
  done;
  let types =
    Array.init arity (fun j ->
        if Bytes.get s.flags j = '\000' then Schema.T_int
        else begin
          (* a column already down to string parses no further field *)
          let fit = ref 3 and r = ref 1 in
          while !fit <> 0 && !r < n do
            fit := fits s (first_of s !r + j) !fit;
            incr r
          done;
          type_of_fit !fit
        end)
  in
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

(* The FNV-1a steps of [Table.fingerprint], repeated here so that they
   inline into the cell loop below and keep its accumulator unboxed:
   modules are compiled [-opaque] in dev builds, which stops inlining
   across them. test_load.ml holds the two to the same bytes. *)
let fnv_prime = 0x100000001b3L

let[@inline] fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let[@inline] fnv_int64 h x =
  let h = fnv_byte h (Int64.to_int x) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 8)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 16)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 24)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 32)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 40)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 48)) in
  fnv_byte h (Int64.to_int (Int64.shift_right_logical x 56))

(* The zero bytes above a non-negative [x]'s low two or four bytes are
   one multiply by a power of the prime, as in [Table.fnv_int]. *)
let prime_power k =
  let p = ref 1L in
  for _ = 1 to k do
    p := Int64.mul !p fnv_prime
  done;
  !p

let prime_pow4 = prime_power 4
let prime_pow6 = prime_power 6

let[@inline] fnv_int h x =
  if x land -0x10000 = 0 then
    Int64.mul (fnv_byte (fnv_byte h x) (x lsr 8)) prime_pow6
  else if x land -0x100000000 = 0 then
    let h = fnv_byte (fnv_byte h x) (x lsr 8) in
    Int64.mul (fnv_byte (fnv_byte h (x lsr 16)) (x lsr 24)) prime_pow4
  else fnv_int64 h (Int64.of_int x)

(* [Table.fingerprint] of the table [read_auto] builds, hashed from the
   fields: per cell the tag byte and payload [cell] would produce, in row
   order. [infer] let through only records of [arity] fields, stored one
   after another, so the loop walks the field table linearly from the
   first data field. Only a float cell, or an int the scanner's fast path
   did not read, allocates: the substring the stdlib parses. *)
let fingerprint_fields s n types schema =
  let h = ref (Table.fingerprint_header ~cardinality:(n - 1) schema) in
  let b = s.image and fields = s.fields and arity = Array.length types in
  let o = ref (3 * arity) in
  for _ = 1 to n - 1 do
    for j = 0 to arity - 1 do
      let start = fields.(!o) and len = fields.(!o + 1) in
      (if len = 0 then h := fnv_byte !h 0
       else
         match Array.unsafe_get types j with
         | Schema.T_int ->
             let v = fields.(!o + 2) in
             h :=
               fnv_int (fnv_byte !h 1)
                 (if v <> min_int then v
                  else int_of_string (Bytes.sub_string b start len))
         | Schema.T_float ->
             h :=
               fnv_int64 (fnv_byte !h 2)
                 (Int64.bits_of_float
                    (float_of_string (Bytes.sub_string b start len)))
         | Schema.T_string ->
             h := fnv_int (fnv_byte !h 3) len;
             for i = start to start + len - 1 do
               h := fnv_byte !h (Char.code (Bytes.unsafe_get b i))
             done);
      o := !o + 3
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
