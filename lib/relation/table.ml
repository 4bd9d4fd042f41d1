type t = { schema : Schema.t; rows : Value.t array array }

let create ?(validate = false) schema rows =
  let arity = Schema.arity schema in
  Array.iteri
    (fun i row ->
      if Array.length row <> arity then
        invalid_arg
          (Printf.sprintf "Table.create: row %d has arity %d, schema wants %d" i
             (Array.length row) arity);
      if validate then
        Array.iteri
          (fun j v ->
            if not (Schema.accepts (Schema.type_of schema j) v) then
              invalid_arg
                (Printf.sprintf "Table.create: row %d column %s: %s value" i
                   (Schema.name_of schema j) (Value.type_name v)))
          row)
    rows;
  { schema; rows }

let of_rows schema rows = create schema (Array.of_list rows)

let schema t = t.schema
let cardinality t = Array.length t.rows
let row t i = t.rows.(i)
let iter f t = Array.iter f t.rows
let iteri f t = Array.iteri f t.rows
let fold f init t = Array.fold_left f init t.rows

let column_index t name =
  match Schema.index_of t.schema name with
  | i -> i
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Table: no column named %S" name)

let column_values t name =
  let i = column_index t name in
  Array.map (fun row -> row.(i)) t.rows

let filter predicate t =
  { t with rows = Array.of_seq (Seq.filter predicate (Array.to_seq t.rows)) }

let select_rows t indices =
  { t with rows = Array.map (fun i -> t.rows.(i)) indices }

let frequency_map t name =
  let i = column_index t name in
  let freq = Value.Tbl.create 1024 in
  Array.iter
    (fun row ->
      match row.(i) with
      | Value.Null -> ()
      | v -> (
          match Value.Tbl.find_opt freq v with
          | Some c -> Value.Tbl.replace freq v (c + 1)
          | None -> Value.Tbl.add freq v 1))
    t.rows;
  freq

(* One [Value.Tbl] lookup per row gives each non-null row its group's
   ordinal (groups numbered in first-occurrence order); the ordinals count
   each group's size, then fill exact-size arrays in row order. The two
   tables' sizes and insertion orders must stay as they are: they decide
   the result's iteration order, which callers see. *)
let group_by t name =
  let i = column_index t name in
  let n = Array.length t.rows in
  let ordinals = Value.Tbl.create 1024 in
  let ordinal_of_row = Array.make n (-1) in
  let sizes = Array.make n 0 in
  let groups = ref 0 in
  for r = 0 to n - 1 do
    match t.rows.(r).(i) with
    | Value.Null -> ()
    | v ->
        let g =
          match Value.Tbl.find ordinals v with
          | g -> g
          | exception Not_found ->
              let g = !groups in
              Value.Tbl.add ordinals v g;
              groups := g + 1;
              g
        in
        ordinal_of_row.(r) <- g;
        sizes.(g) <- sizes.(g) + 1
  done;
  let rows = Array.make !groups [||] in
  let out = Value.Tbl.create !groups in
  Value.Tbl.iter
    (fun v g ->
      rows.(g) <- Array.make sizes.(g) 0;
      Value.Tbl.add out v rows.(g))
    ordinals;
  (* fill from the last row down, counting each size back to 0, so every
     array ends up in increasing row order *)
  for r = n - 1 downto 0 do
    let g = ordinal_of_row.(r) in
    if g >= 0 then begin
      let k = sizes.(g) - 1 in
      rows.(g).(k) <- r;
      sizes.(g) <- k
    end
  done;
  out

let distinct_count t name =
  let i = column_index t name in
  let seen = Value.Tbl.create 1024 in
  Array.iter
    (fun row ->
      match row.(i) with
      | Value.Null -> ()
      | v -> if not (Value.Tbl.mem seen v) then Value.Tbl.add seen v ())
    t.rows;
  Value.Tbl.length seen

(* FNV-1a over a canonical byte rendering of the schema and every cell.
   64-bit, content-only: two tables with equal schemas and equal rows in
   equal order fingerprint identically on any platform. Used by the
   synopsis store to refuse rehydrating sampled row indices against data
   that is not the data they were drawn from. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let[@inline] fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

(* the eight little-endian bytes of [x], written out so that inlined into
   a loop they leave its accumulator unboxed *)
let[@inline] fnv_int64 h x =
  let h = fnv_byte h (Int64.to_int x) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 8)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 16)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 24)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 32)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 40)) in
  let h = fnv_byte h (Int64.to_int (Int64.shift_right_logical x 48)) in
  fnv_byte h (Int64.to_int (Int64.shift_right_logical x 56))

(* [fnv_int64 h (Int64.of_int x)] in fewer multiplies. A zero byte's
   step is a multiply by the prime, so the zero bytes above a non-negative
   [x]'s low two (or four) bytes fold into one multiply by the prime's
   sixth (or fourth) power: three multiplies for an int below 2^16, not
   eight. The hash is the same. *)
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

let fnv_string h s =
  let h = ref (fnv_int h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let fingerprint_header ~cardinality schema =
  List.fold_left
    (fun h (name, ty) ->
      fnv_byte (fnv_string h name)
        (match ty with
        | Schema.T_int -> 0
        | Schema.T_float -> 1
        | Schema.T_string -> 2))
    (fnv_int fnv_offset cardinality)
    (Schema.columns schema)

(* The cell loop keeps its accumulator in a local that no closure or call
   boxes: a string's bytes are hashed inline, not through [fnv_string]. *)
let fingerprint t =
  let h =
    ref (fingerprint_header ~cardinality:(cardinality t) t.schema)
  in
  for r = 0 to Array.length t.rows - 1 do
    let row = t.rows.(r) in
    for c = 0 to Array.length row - 1 do
      match row.(c) with
      | Value.Null -> h := fnv_byte !h 0
      | Value.Int x -> h := fnv_int (fnv_byte !h 1) x
      | Value.Float x -> h := fnv_int64 (fnv_byte !h 2) (Int64.bits_of_float x)
      | Value.Str s ->
          h := fnv_int (fnv_byte !h 3) (String.length s);
          for i = 0 to String.length s - 1 do
            h := fnv_byte !h (Char.code (String.unsafe_get s i))
          done
    done
  done;
  !h

let pp_head ?(limit = 10) fmt t =
  Format.fprintf fmt "%a (%d rows)@." Schema.pp t.schema (cardinality t);
  let shown = min limit (cardinality t) in
  for i = 0 to shown - 1 do
    let cells = Array.to_list (Array.map Value.to_string t.rows.(i)) in
    Format.fprintf fmt "  %s@." (String.concat " | " cells)
  done;
  if cardinality t > shown then Format.fprintf fmt "  ...@."

type sampled = {
  schema : Schema.t;
  cardinality : int;
  fingerprint : int64;
  distinct : (string * int) list;
  rows : t;
}

type row_reader = string -> columns:string list -> rows:int array -> sampled

let read_rows t ~columns ~rows =
  let distinct = List.map (fun c -> (c, distinct_count t c)) columns in
  let n = cardinality t in
  {
    schema = t.schema;
    cardinality = n;
    fingerprint = fingerprint t;
    distinct;
    rows =
      select_rows t
        (Array.of_seq
           (Seq.filter (fun i -> i >= 0 && i < n) (Array.to_seq rows)));
  }
