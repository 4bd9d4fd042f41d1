open Repro_relation

type stored = {
  key : string;
  table_a : string;
  table_b : string;
  swapped : bool;
  fingerprint_a : int64;
  fingerprint_b : int64;
  prng_key : string;
  shards : int;
  sentinels : Sentinel.t list;
  synopsis : Synopsis.t;
}

let magic = "reprosyn"
let version = 3

(* ---------------- FNV-1a (checksum + layout hash) ---------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* One unboxed loop over [s.[pos] .. s.[pos + len - 1]], in place: no
   copy of the range, no boxed step. *)
let checksum s pos len =
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let checksum_string s = checksum s 0 (String.length s)

(* The layout descriptor names every field of the payload in order. Any
   change to the wire layout must edit this string, which changes the
   schema hash and makes old readers reject new files (and vice versa)
   with a typed error instead of misparsing them. *)
let layout =
  "v3: entries[key table_a table_b swapped fp_a fp_b prng_key shards \
   sentinels[left_pred right_pred truth baseline] \
   budget[spec[name p q u sentry method opt_var hh_k] theta p_rate q_rate \
   u_rate base_q expected_size budget] sample_a sample_b n_prime]; \
   sample = column tuple_count segment{shards}; \
   segment = length fnv64 entries[value sentry_row rows p_v q_v] \
   (entries canonically sorted within their shard's hash range); \
   rate = const|scaled|blended[c light (value weight)*]; \
   ints i64le, floats f64 bits, strings length-prefixed"

let schema_hash = checksum_string layout

(* ---------------- encoder ---------------- *)

let add_u8 buf i = Buffer.add_char buf (Char.chr (i land 0xff))
let add_bool buf b = add_u8 buf (if b then 1 else 0)
let add_i64 buf (x : int64) = Buffer.add_int64_le buf x
let add_int buf i = add_i64 buf (Int64.of_int i)
let add_f64 buf x = add_i64 buf (Int64.bits_of_float x)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_opt add buf = function
  | None -> add_u8 buf 0
  | Some x ->
      add_u8 buf 1;
      add buf x

let add_value buf = function
  | Value.Null -> add_u8 buf 0
  | Value.Int x ->
      add_u8 buf 1;
      add_int buf x
  | Value.Float x ->
      add_u8 buf 2;
      add_f64 buf x
  | Value.Str s ->
      add_u8 buf 3;
      add_str buf s

let level_tag = function
  | Spec.L_one -> 0
  | Spec.L_theta -> 1
  | Spec.L_sqrt_theta -> 2
  | Spec.L_diff -> 3

let method_tag = function Spec.Scaling -> 0 | Spec.Discrete_learning -> 1

let add_spec buf (s : Spec.t) =
  add_str buf s.Spec.name;
  add_u8 buf (level_tag s.Spec.p_choice);
  add_u8 buf (level_tag s.Spec.q_choice);
  add_opt (fun buf c -> add_u8 buf (level_tag c)) buf s.Spec.u_choice;
  add_bool buf s.Spec.sentry;
  add_u8 buf (method_tag s.Spec.method_);
  add_bool buf s.Spec.optimize_variance;
  add_opt add_int buf s.Spec.heavy_hitter_k

(* Hashtable contents are written in iteration order so the decoder can
   rebuild the exact same table (see [thaw_entries]). *)
let tbl_bindings tbl =
  let acc = ref [] in
  Value.Tbl.iter (fun k v -> acc := (k, v) :: !acc) tbl;
  List.rev !acc

let add_rate buf = function
  | Budget.Const c ->
      add_u8 buf 0;
      add_f64 buf c
  | Budget.Scaled c ->
      add_u8 buf 1;
      add_f64 buf c
  | Budget.Blended { c; heavy; light } ->
      add_u8 buf 2;
      add_f64 buf c;
      add_f64 buf light;
      let bindings = tbl_bindings heavy in
      add_int buf (List.length bindings);
      List.iter
        (fun (v, w) ->
          add_value buf v;
          add_f64 buf w)
        bindings

let add_budget buf (b : Budget.t) =
  add_spec buf b.Budget.spec;
  add_f64 buf b.Budget.theta;
  add_rate buf b.Budget.p_rate;
  add_rate buf b.Budget.q_rate;
  add_rate buf b.Budget.u_rate;
  add_f64 buf b.Budget.base_q;
  add_f64 buf b.Budget.expected_size;
  add_f64 buf b.Budget.budget

let add_entries buf bindings =
  add_int buf (List.length bindings);
  List.iter
    (fun (v, (e : Sample.entry)) ->
      add_value buf v;
      add_opt add_int buf e.Sample.sentry_row;
      add_int buf (Array.length e.Sample.rows);
      Array.iter (add_int buf) e.Sample.rows;
      add_f64 buf e.Sample.p_v;
      add_f64 buf e.Sample.q_v)
    bindings

(* Samples are stored as [shards] independent segments: shard [k] holds
   the entries routed to it by [Shard_key.shard_of], canonically sorted
   ([Shard_key.sorted_bindings] — the order every flat view uses anyway),
   each segment length-prefixed and FNV-checksummed on its own. A reader
   can thus verify and swap a single shard without touching the others,
   and a truncated or corrupted segment is rejected by name instead of
   misparsing into its neighbour. *)
let add_sample ~shards buf (s : Sample.t) =
  add_str buf s.Sample.column;
  add_int buf s.Sample.tuple_count;
  add_int buf shards;
  let segments = Array.make shards [] in
  List.iter
    (fun ((v, _) as binding) ->
      let k = Shard_key.shard_of ~shards v in
      segments.(k) <- binding :: segments.(k))
    (List.rev (Shard_key.sorted_bindings s.Sample.entries));
  Array.iter
    (fun bindings ->
      let seg = Buffer.create 256 in
      add_entries seg bindings;
      let bytes = Buffer.contents seg in
      add_int buf (String.length bytes);
      add_i64 buf (checksum_string bytes);
      Buffer.add_string buf bytes)
    segments

let add_stored buf s =
  add_str buf s.key;
  add_str buf s.table_a;
  add_str buf s.table_b;
  add_bool buf s.swapped;
  add_i64 buf s.fingerprint_a;
  add_i64 buf s.fingerprint_b;
  add_str buf s.prng_key;
  add_int buf s.shards;
  add_int buf (List.length s.sentinels);
  List.iter
    (fun (sen : Sentinel.t) ->
      add_str buf sen.Sentinel.left_pred;
      add_str buf sen.Sentinel.right_pred;
      add_f64 buf sen.Sentinel.truth;
      add_f64 buf sen.Sentinel.baseline)
    s.sentinels;
  let { Synopsis.resolved; sample_a; sample_b; n_prime } = s.synopsis in
  add_budget buf resolved;
  add_sample ~shards:s.shards buf sample_a;
  add_sample ~shards:s.shards buf sample_b;
  add_f64 buf n_prime

let encode_payload entries =
  let buf = Buffer.create 4096 in
  add_int buf (List.length entries);
  List.iter (add_stored buf) entries;
  Buffer.contents buf

let encode entries =
  let payload = encode_payload entries in
  let buf = Buffer.create (String.length payload + 40) in
  Buffer.add_string buf magic;
  add_int buf version;
  add_i64 buf schema_hash;
  add_int buf (String.length payload);
  add_i64 buf (checksum_string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---------------- decoder ---------------- *)

exception Fail of Fault.error

let fail what detail = raise (Fail (Fault.Store_mismatch { what; detail }))

(* A reader over the range [base, base + len) of [data]: the payload or
   one shard segment, read in place. [pos] counts from [base], so every
   position and length a fault reports is relative to its range. *)
type reader = { data : string; base : int; len : int; mutable pos : int }

let reader data ~base ~len = { data; base; len; pos = 0 }
let left r = r.len - r.pos

(* [n > left r], not [r.pos + n > r.len]: a corrupted length near
   [max_int] must not wrap past the check *)
let need r n =
  if n < 0 || n > left r then
    fail "payload"
      (Printf.sprintf "truncated at byte %d (need %d of %d)" r.pos n r.len)

let get_u8 r =
  need r 1;
  let b = Char.code r.data.[r.base + r.pos] in
  r.pos <- r.pos + 1;
  b

let get_bool r = get_u8 r <> 0

let get_i64 r =
  need r 8;
  let x = String.get_int64_le r.data (r.base + r.pos) in
  r.pos <- r.pos + 8;
  x

let get_int r =
  let x = get_i64 r in
  let i = Int64.to_int x in
  if Int64.of_int i <> x then fail "payload" "integer out of range";
  i

let get_count r what =
  let n = get_int r in
  if n < 0 then fail "payload" ("negative " ^ what ^ " count");
  n

let get_f64 r = Int64.float_of_bits (get_i64 r)

let get_str r =
  let n = get_count r "string" in
  need r n;
  let s = String.sub r.data (r.base + r.pos) n in
  r.pos <- r.pos + n;
  s

let get_opt get r = match get_u8 r with 0 -> None | _ -> Some (get r)

let get_value r =
  match get_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Int (get_int r)
  | 2 -> Value.Float (get_f64 r)
  | 3 -> Value.Str (get_str r)
  | tag -> fail "payload" (Printf.sprintf "unknown value tag %d" tag)

let get_level r =
  match get_u8 r with
  | 0 -> Spec.L_one
  | 1 -> Spec.L_theta
  | 2 -> Spec.L_sqrt_theta
  | 3 -> Spec.L_diff
  | tag -> fail "payload" (Printf.sprintf "unknown level tag %d" tag)

let get_method r =
  match get_u8 r with
  | 0 -> Spec.Scaling
  | 1 -> Spec.Discrete_learning
  | tag -> fail "payload" (Printf.sprintf "unknown method tag %d" tag)

let get_spec r =
  let name = get_str r in
  let p_choice = get_level r in
  let q_choice = get_level r in
  let u_choice = get_opt get_level r in
  let sentry = get_bool r in
  let method_ = get_method r in
  let optimize_variance = get_bool r in
  let heavy_hitter_k = get_opt get_int r in
  {
    Spec.name;
    p_choice;
    q_choice;
    u_choice;
    sentry;
    method_;
    optimize_variance;
    heavy_hitter_k;
  }

let get_rate r =
  match get_u8 r with
  | 0 -> Budget.Const (get_f64 r)
  | 1 -> Budget.Scaled (get_f64 r)
  | 2 ->
      let c = get_f64 r in
      let light = get_f64 r in
      let n = get_count r "heavy-hitter" in
      (* each binding takes at least 9 bytes; bounding [n] first keeps a
         corrupted count from sizing a huge table *)
      need r (min n r.len * 9);
      let heavy = Value.Tbl.create (max 16 n) in
      for _ = 1 to n do
        let v = get_value r in
        let w = get_f64 r in
        Value.Tbl.add heavy v w
      done;
      Budget.Blended { c; heavy; light }
  | tag -> fail "payload" (Printf.sprintf "unknown rate tag %d" tag)

let get_budget r =
  let spec = get_spec r in
  let theta = get_f64 r in
  let p_rate = get_rate r in
  let q_rate = get_rate r in
  let u_rate = get_rate r in
  let base_q = get_f64 r in
  let expected_size = get_f64 r in
  let budget = get_f64 r in
  {
    Budget.spec;
    theta;
    p_rate;
    q_rate;
    u_rate;
    base_q;
    expected_size;
    budget;
  }

(* Iteration order of the rebuilt hashtable is immaterial: every float
   accumulation downstream (flat layout, budget solving, profile scans)
   runs in the canonical Shard_key order, and N' is an exact
   integer-valued sum — so the decoder just re-adds the recorded
   bindings. The round-trip test in test_store.ml pins the resulting
   bit-identity for every variant.

   Row indices are kept as stored: no table has been read yet, so they
   are range-checked once their table is resolved ([build_sample]). With
   [keep = false] the entries are only walked: every field is still
   parsed, so the segment's trailing-byte check holds, but nothing is
   kept. *)
let get_entries r ~keep acc =
  let n = get_count r "sample entry" in
  let bindings = ref acc in
  for _ = 1 to n do
    let v = get_value r in
    let sentry_row = get_opt get_int r in
    let rows_n = get_count r "row" in
    (* compared by division: [rows_n * 8] could wrap past [need] *)
    if rows_n > left r / 8 then need r (rows_n * 8);
    (* explicit loop: Array.init does not guarantee evaluation order, and
       the reader is stateful *)
    let rows = Array.make (if keep then rows_n else 0) 0 in
    for i = 0 to rows_n - 1 do
      let row = get_int r in
      if keep then rows.(i) <- row
    done;
    let p_v = get_f64 r in
    let q_v = get_f64 r in
    if keep then
      bindings := (v, { Sample.sentry_row; rows; p_v; q_v }) :: !bindings
  done;
  !bindings

(* A sample as stored, before its table is read: the bindings come last
   entry first, and their row indices are unchecked. *)
type parsed_sample = {
  column : string;
  tuple_count : int;
  bindings : (Value.t * Sample.entry) list;
}

let get_sample r ~shards ~keep =
  let column = get_str r in
  let tuple_count = get_int r in
  if tuple_count < 0 then fail "payload" "negative tuple count";
  let stored_shards = get_count r "shard" in
  if stored_shards <> shards then
    fail "shard segment"
      (Printf.sprintf "sample declares %d shard segments, entry declares %d"
         stored_shards shards);
  let bindings = ref [] in
  for k = 0 to shards - 1 do
    let seg_len = get_count r "shard segment byte" in
    let recorded = get_i64 r in
    if seg_len > left r then
      fail "shard segment"
        (Printf.sprintf "shard %d truncated at byte %d (need %d of %d)" k r.pos
           seg_len r.len);
    let sr = reader r.data ~base:(r.base + r.pos) ~len:seg_len in
    r.pos <- r.pos + seg_len;
    let actual = checksum r.data sr.base seg_len in
    if actual <> recorded then
      fail "shard segment"
        (Printf.sprintf "shard %d: recorded checksum %Lx, segment hashes to %Lx"
           k recorded actual);
    bindings := get_entries sr ~keep !bindings;
    if sr.pos <> seg_len then
      fail "shard segment"
        (Printf.sprintf "shard %d: %d trailing bytes after last entry" k
           (seg_len - sr.pos))
  done;
  { column; tuple_count; bindings = !bindings }

(* Where the samples' tables come from: whole tables, which a stored
   synopsis keeps (its row indices address them), or just the rows the
   wanted entries sample, with each sample's join-column distinct count
   when [counts]. *)
type tables =
  | Whole of (string -> Table.t)
  | Sampled of { read_rows : Table.row_reader; counts : bool }

(* One table name, resolved: what the whole table is, the table its
   samples are built over, and where a stored row index (in range) lands
   in that table. *)
type source = { whole : Table.sampled; table : Table.t; index : int -> int }

(* The position of [i] in [sorted], which holds it. *)
let position sorted i =
  let lo = ref 0 and hi = ref (Array.length sorted - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

(* A sample over its resolved table. A sampled row or sentry index outside
   the whole table would pass every checksum (the encoder wrote it
   faithfully) and then crash the first estimate that reads the row, so
   it is rejected here, the first one in stored order. *)
let build_sample source (ps : parsed_sample) =
  let cardinality = source.whole.Table.cardinality in
  let row i =
    if i < 0 || i >= cardinality then
      fail "row"
        (Printf.sprintf "row index %d outside a table of %d rows" i cardinality);
    source.index i
  in
  let bindings =
    List.rev_map
      (fun (v, (e : Sample.entry)) ->
        let sentry_row = Option.map row e.Sample.sentry_row in
        Array.iteri (fun k i -> e.Sample.rows.(k) <- row i) e.Sample.rows;
        (v, { e with Sample.sentry_row }))
      (List.rev ps.bindings)
  in
  let entries = Value.Tbl.create 256 in
  List.iter (fun (v, e) -> Value.Tbl.add entries v e) bindings;
  let sentries =
    Value.Tbl.fold
      (fun _ (e : Sample.entry) acc ->
        match e.Sample.sentry_row with Some _ -> acc + 1 | None -> acc)
      entries 0
  in
  {
    Sample.table = source.table;
    column = ps.column;
    entries;
    tuple_count = ps.tuple_count;
    sentries;
  }

let check_fingerprint name source recorded =
  let actual = source.whole.Table.fingerprint in
  if actual <> recorded then
    fail "fingerprint"
      (Printf.sprintf "table %S: recorded %Lx, resolved data hashes to %Lx"
         name recorded actual)

(* Parse one entry. Only an entry whose key satisfies [wanted] keeps its
   samples; any other is walked through the same readers, so every
   length, checksum and structural check still runs on it. A kept entry
   comes back as what it needs of each table name (the sample on it) and
   the function that, given those tables, checks them against its own
   recorded fingerprints and builds it, with the sources of its samples
   in sampler orientation. *)
let get_stored r ~wanted =
  let key = get_str r in
  let table_a = get_str r in
  let table_b = get_str r in
  let swapped = get_bool r in
  let fingerprint_a = get_i64 r in
  let fingerprint_b = get_i64 r in
  let prng_key = get_str r in
  let shards = get_count r "shard" in
  if shards < 1 then fail "shard segment" "entry declares zero shards";
  let sentinel_count = get_count r "sentinel" in
  let sentinels = ref [] in
  for _ = 1 to sentinel_count do
    let left_pred = get_str r in
    let right_pred = get_str r in
    let truth = get_f64 r in
    let baseline = get_f64 r in
    sentinels := { Sentinel.left_pred; right_pred; truth; baseline } :: !sentinels
  done;
  let sentinels = List.rev !sentinels in
  let keep = wanted key in
  let resolved = get_budget r in
  (* the samples are stored in sampler orientation: the first-sampled side
     lives on table_b when the estimator swapped *)
  let first = get_sample r ~shards ~keep in
  let second = get_sample r ~shards ~keep in
  let n_prime = get_f64 r in
  let orient a b = if swapped then (b, a) else (a, b) in
  if not keep then None
  else
    let on_a, on_b = orient first second in
    Some
      ( [ (table_a, on_a); (table_b, on_b) ],
        fun resolve ->
          let source_a = resolve table_a in
          let source_b = resolve table_b in
          check_fingerprint table_a source_a fingerprint_a;
          check_fingerprint table_b source_b fingerprint_b;
          let for_first, for_second = orient source_a source_b in
          let sample_a = build_sample for_first first in
          let sample_b = build_sample for_second second in
          ( {
              key;
              table_a;
              table_b;
              swapped;
              fingerprint_a;
              fingerprint_b;
              prng_key;
              shards;
              sentinels;
              synopsis = { Synopsis.resolved; sample_a; sample_b; n_prime };
            },
            for_first,
            for_second ) )

(* Every check of the file image that needs no table: header, payload
   checksum and every entry's structure, wanted or not. *)
let walk_payload ~wanted data =
  if String.length data < 40 then fail "header" "file shorter than header";
  if String.sub data 0 8 <> magic then fail "magic" "not a synopsis store";
  let r = reader data ~base:0 ~len:(String.length data) in
  r.pos <- 8;
  let v = get_int r in
  if v <> version then
    fail "version"
      (Printf.sprintf "file version %d, this library reads %d" v version);
  let h = get_i64 r in
  if h <> schema_hash then
    fail "schema-hash"
      (Printf.sprintf "file layout %Lx, this library reads %Lx" h schema_hash);
  let payload_length = get_count r "payload byte" in
  let recorded_checksum = get_i64 r in
  if payload_length <> left r then
    fail "payload"
      (Printf.sprintf "payload length %d does not match file size"
         payload_length);
  let actual = checksum data r.pos payload_length in
  if actual <> recorded_checksum then
    fail "checksum"
      (Printf.sprintf "recorded %Lx, payload hashes to %Lx" recorded_checksum
         actual);
  let pr = reader data ~base:r.pos ~len:payload_length in
  let n = get_count pr "entry" in
  let kept = ref [] in
  for _ = 1 to n do
    Option.iter (fun e -> kept := e :: !kept) (get_stored pr ~wanted)
  done;
  if pr.pos <> pr.len then fail "payload" "trailing bytes after last entry";
  List.rev !kept

(* The rows the samples in [needs] hold on table [name], ascending and
   distinct; a negative index is left out, as it fails its range check
   anyway. *)
let union_rows needs name =
  let rows = ref [||] and n = ref 0 in
  let add i =
    if i >= 0 then begin
      if !n = Array.length !rows then
        rows := Repro_util.Scratch.grow !rows (!n + 1) 0;
      !rows.(!n) <- i;
      incr n
    end
  in
  List.iter
    (fun (table, (ps : parsed_sample)) ->
      if String.equal table name then
        List.iter
          (fun (_, (e : Sample.entry)) ->
            Option.iter add e.Sample.sentry_row;
            Array.iter add e.Sample.rows)
          ps.bindings)
    needs;
  let rows = Array.sub !rows 0 !n in
  Array.stable_sort Int.compare rows;
  let k = ref 0 in
  Array.iter
    (fun i ->
      if !k = 0 || rows.(!k - 1) <> i then begin
        rows.(!k) <- i;
        incr k
      end)
    rows;
  Array.sub rows 0 !k

(* Each table name in [needs] is read once: a whole table, or the union
   of the rows its samples hold and, with [counts], the distinct counts
   of their join columns. A self-join reads its one table once for both
   samples. A resolver failure fails the decode. *)
let resolver tables needs =
  let resolved = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt resolved name with
    | Some source -> source
    | None ->
        let read () =
          match tables with
          | Whole resolve_table ->
              let table = resolve_table name in
              {
                whole = Table.read_rows table ~columns:[] ~rows:[||];
                table;
                index = Fun.id;
              }
          | Sampled { read_rows; counts } ->
              let rows = union_rows needs name in
              let columns =
                if not counts then []
                else
                  List.sort_uniq String.compare
                    (List.filter_map
                       (fun (table, (ps : parsed_sample)) ->
                         if String.equal table name then Some ps.column
                         else None)
                       needs)
              in
              let whole = read_rows name ~columns ~rows in
              { whole; table = whole.Table.rows; index = position rows }
        in
        let source =
          match read () with
          | source -> source
          | exception exn ->
              fail "table"
                (Printf.sprintf "cannot resolve %S: %s" name
                   (Printexc.to_string exn))
        in
        Hashtbl.replace resolved name source;
        source

(* The one payload walker. The whole image is checked first; then each
   wanted entry, in file order, resolves its two tables (each name once
   per call), checks their fingerprints and builds its samples, and
   [finish] makes the result of it and its samples' sources. *)
let walk ~tables ~wanted ~finish data =
  match
    let kept = walk_payload ~wanted data in
    let resolve = resolver tables (List.concat_map fst kept) in
    List.map (fun (_, build) -> finish (build resolve)) kept
  with
  | entries -> Ok entries
  | exception Fail fault -> Error fault
  | exception exn ->
      Error
        (Fault.Store_mismatch
           { what = "payload"; detail = Printexc.to_string exn })

let entry (s, _, _) = s

let decode ~resolve_table data =
  walk ~tables:(Whole resolve_table) ~wanted:(fun _ -> true) ~finish:entry data

type side = { cardinality : int; distinct : int }
type served = { entry : stored; side_a : side; side_b : side }

let served ((s : stored), first, second) =
  let side source (sample : Sample.t) =
    {
      cardinality = source.whole.Table.cardinality;
      distinct = List.assoc sample.Sample.column source.whole.Table.distinct;
    }
  in
  {
    entry = s;
    side_a = side first s.synopsis.Synopsis.sample_a;
    side_b = side second s.synopsis.Synopsis.sample_b;
  }

(* ---------------- file IO ---------------- *)

(* Crash-safe write: the image goes to a fresh temp file in the target's
   own directory (rename is only atomic within a filesystem) and is
   renamed over [path] only after a successful close. A process killed
   mid-write can therefore never leave a torn store at [path] — readers
   see either the old bytes or the new ones, and the orphaned temp file
   is removed on any failure. *)
let write ~path entries =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir
      (Filename.basename path ^ ".") ".tmp"
  in
  match
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (encode entries))
  with
  | () -> Sys.rename tmp path
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
      Error (Fault.Store_mismatch { what = "file"; detail = e })
  | exception End_of_file ->
      Error (Fault.Store_mismatch { what = "file"; detail = path ^ ": truncated" })
  | data -> Ok data

let read ~resolve_table ~path =
  Result.bind (read_file path) (decode ~resolve_table)

(* A store written by [Store.save] holds each key once; should a file
   repeat one, the last copy wins, as it does for [Store.load_result]
   and the serving engine's snapshot. *)
let read_entry ~read_rows ~path ~key =
  match
    Result.bind (read_file path)
      (walk
         ~tables:(Sampled { read_rows; counts = false })
         ~wanted:(String.equal key) ~finish:entry)
  with
  | Error _ as e -> e
  | Ok [] ->
      Error
        (Fault.Store_mismatch
           { what = "key"; detail = key ^ " missing from store" })
  | Ok entries -> Ok (List.nth entries (List.length entries - 1))

let read_served ~read_rows ~path =
  Result.bind (read_file path)
    (walk
       ~tables:(Sampled { read_rows; counts = true })
       ~wanted:(fun _ -> true) ~finish:served)
