open Repro_relation
module Obs = Repro_obs.Obs
module Pool = Repro_util.Pool

(* A synopsis held as K deterministic partitions of the join-value space.

   Shards are contiguous ranges of the canonical 64-bit value-hash space
   (Shard_key), and every per-value draw runs on its own keyed PRNG
   sub-stream (Sample.stream_a/b derived from the build's 64-bit base).
   Together these make the merged synopsis bit-identical to the
   monolithic single-shard draw, regardless of K, of which domain drew
   which shard, and of how many deltas have been applied since. *)

type shard = {
  entries_a : Sample.entry Value.Tbl.t;
  entries_b : Sample.entry Value.Tbl.t;
}

type t = {
  base : int64;
  shards : shard array;
  mutable profile : Profile.t;
  mutable resolved : Budget.t;
}

type side_delta = { inserts : Value.t array array; deletes : int array }
type delta = { a : side_delta; b : side_delta }

let no_delta = { inserts = [||]; deletes = [||] }
let shard_count t = Array.length t.shards
let profile t = t.profile
let resolved t = t.resolved
let base t = t.base

let entry_size (e : Sample.entry) =
  Array.length e.Sample.rows
  + match e.Sample.sentry_row with Some _ -> 1 | None -> 0

let shard_tuple_counts t =
  Array.map
    (fun sh ->
      let count tbl =
        Value.Tbl.fold (fun _ e acc -> acc + entry_size e) tbl 0
      in
      count sh.entries_a + count sh.entries_b)
    t.shards

(* ---------------- construction ---------------- *)

let empty_shards k =
  Array.init k (fun _ ->
      { entries_a = Value.Tbl.create 64; entries_b = Value.Tbl.create 64 })

let build ?obs ?jobs ~base ~profile ~resolved ~shards () =
  if shards < 1 then invalid_arg "Synopsis_shard.build: shards must be >= 1";
  (* Each shard draws only its own hash range, on the same global budget
     and the same sub-stream base — per-value streams make the restricted
     draws independent, so they may run on any pool domain in any order. *)
  let subs =
    Pool.map_array ?obs ?jobs
      (fun k ->
        Synopsis.draw_base ?obs
          ~select:(fun v -> Shard_key.shard_of ~shards v = k)
          ~base ~profile ~resolved ())
      (Array.init shards Fun.id)
  in
  {
    base;
    profile;
    resolved;
    shards =
      Array.map
        (fun (syn : Synopsis.t) ->
          {
            entries_a = syn.Synopsis.sample_a.Sample.entries;
            entries_b = syn.Synopsis.sample_b.Sample.entries;
          })
        subs;
  }

let of_synopsis ~base ~profile ~shards (syn : Synopsis.t) =
  if shards < 1 then
    invalid_arg "Synopsis_shard.of_synopsis: shards must be >= 1";
  let t =
    { base; profile; resolved = syn.Synopsis.resolved; shards = empty_shards shards }
  in
  let route proj sample =
    Value.Tbl.iter
      (fun v e ->
        Value.Tbl.replace (proj t.shards.(Shard_key.shard_of ~shards v)) v e)
      sample.Sample.entries
  in
  route (fun sh -> sh.entries_a) syn.Synopsis.sample_a;
  route (fun sh -> sh.entries_b) syn.Synopsis.sample_b;
  t

(* ---------------- merge ---------------- *)

let sample_of_entries (side : Profile.side) entries =
  let tuple_count = ref 0 and sentries = ref 0 in
  Value.Tbl.iter
    (fun _ (e : Sample.entry) ->
      tuple_count := !tuple_count + entry_size e;
      if e.Sample.sentry_row <> None then incr sentries)
    entries;
  {
    Sample.table = side.Profile.table;
    column = side.Profile.column;
    entries;
    tuple_count = !tuple_count;
    sentries = !sentries;
  }

let union_entries t proj =
  let out = Value.Tbl.create 256 in
  Array.iter
    (fun sh -> Value.Tbl.iter (fun v e -> Value.Tbl.replace out v e) (proj sh))
    t.shards;
  out

let merge t =
  let sample_a =
    sample_of_entries t.profile.Profile.a (union_entries t (fun sh -> sh.entries_a))
  in
  let sample_b =
    sample_of_entries t.profile.Profile.b (union_entries t (fun sh -> sh.entries_b))
  in
  {
    Synopsis.resolved = t.resolved;
    sample_a;
    sample_b;
    (* integer-valued partial sums recombine exactly (see Synopsis) *)
    n_prime = Synopsis.n_prime_of ~profile:t.profile sample_a;
  }

(* ---------------- incremental maintenance ---------------- *)

let compact ~side_name (table : Table.t) (d : side_delta) =
  let n = Table.cardinality table in
  let keep = Array.make n true in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf
             "Synopsis_shard.apply_delta: side %s delete index %d out of \
              range [0, %d)"
             side_name i n);
      if not keep.(i) then
        invalid_arg
          (Printf.sprintf
             "Synopsis_shard.apply_delta: side %s duplicate delete index %d"
             side_name i);
      keep.(i) <- false)
    d.deletes;
  let survivors = n - Array.length d.deletes in
  let remap = Array.make n (-1) in
  let rows = Array.make (survivors + Array.length d.inserts) [||] in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep.(i) then begin
      remap.(i) <- !j;
      rows.(!j) <- Table.row table i;
      incr j
    end
  done;
  Array.iteri (fun k r -> rows.(survivors + k) <- r) d.inserts;
  (Table.create ~validate:true (Table.schema table) rows, remap)

(* Values whose tuple group is touched by the batch (insert or delete);
   Nulls never join and never carry sample entries. *)
let touched_values (table : Table.t) column (d : side_delta) =
  let c = Table.column_index table column in
  let set = Value.Tbl.create 16 in
  let add = function Value.Null -> () | v -> Value.Tbl.replace set v () in
  Array.iter (fun i -> add (Table.row table i).(c)) d.deletes;
  Array.iter (fun row -> add row.(c)) d.inserts;
  set

let remap_entry remap (e : Sample.entry) =
  let move i =
    let j = remap.(i) in
    assert (j >= 0);
    j
  in
  {
    e with
    Sample.rows = Array.map move e.Sample.rows;
    sentry_row = Option.map move e.Sample.sentry_row;
  }

let apply_delta t (d : delta) =
  let old_profile = t.profile and old_resolved = t.resolved in
  let pa = old_profile.Profile.a and pb = old_profile.Profile.b in
  let table_a, remap_a = compact ~side_name:"A" pa.Profile.table d.a in
  let table_b, remap_b = compact ~side_name:"B" pb.Profile.table d.b in
  let touched_a = touched_values pa.Profile.table pa.Profile.column d.a in
  let touched_b = touched_values pb.Profile.table pb.Profile.column d.b in
  let profile =
    Profile.of_tables table_a pa.Profile.column table_b pb.Profile.column
  in
  let resolved =
    Budget.resolve old_resolved.Budget.spec ~theta:old_resolved.Budget.theta
      profile
  in
  let sentry = resolved.Budget.spec.Spec.sentry in
  let shards = Array.length t.shards in
  let dirty = Array.make shards false in
  let redrawn_a = Value.Tbl.create 64 and redrawn_b = Value.Tbl.create 64 in
  let rates res prof v =
    let p = Budget.p_of res prof v in
    let q = if p > 0.0 then Budget.q_of res prof v else 0.0 in
    (p, q)
  in
  (* Pass 1 — first side, over every value of the post-delta A side. A
     value re-draws iff the inputs of its (pure, per-value) draw changed:
     its tuple group was touched, or the budget re-resolution re-priced it.
     Re-running Sample.draw_first_value on the same keyed stream makes the
     result bit-identical to a from-scratch draw of the new table; values
     whose inputs are unchanged keep their entries (their row indices are
     remapped below) and never dirty their shard. Note that data-dependent
     rates (the Scaled/Blended variants) may legitimately re-price every
     value, in which case the "incremental" apply degrades to a full
     re-draw — still bit-identical, organized shard by shard. *)
  Value.Tbl.iter
    (fun v rows ->
      let old_p, old_q = rates old_resolved old_profile v in
      let p_v, q_v = rates resolved profile v in
      if
        Value.Tbl.mem touched_a v
        || (not (Float.equal old_p p_v))
        || not (Float.equal old_q q_v)
      then begin
        let k = Shard_key.shard_of ~shards v in
        let sh = t.shards.(k) in
        Value.Tbl.replace redrawn_a v ();
        dirty.(k) <- true;
        match Sample.draw_first_value ~base:t.base ~sentry ~rows ~p_v ~q_v v with
        | Some e -> Value.Tbl.replace sh.entries_a v e
        | None -> Value.Tbl.remove sh.entries_a v
      end)
    profile.Profile.a.Profile.groups;
  (* Pass 2 — drop values whose A group vanished entirely (all tuples
     deleted). They are marked re-drawn so pass 3 drops their B entry. *)
  Array.iteri
    (fun k sh ->
      let stale =
        Value.Tbl.fold
          (fun v _ acc ->
            if Value.Tbl.mem profile.Profile.a.Profile.groups v then acc
            else v :: acc)
          sh.entries_a []
      in
      List.iter
        (fun v ->
          Value.Tbl.remove sh.entries_a v;
          Value.Tbl.replace redrawn_a v ();
          dirty.(k) <- true)
        stale)
    t.shards;
  (* Pass 3 — semijoin side. A value needs a B re-draw when its A entry
     changed (membership or stored p_v), its B group was touched, or its
     u rate was re-priced. Candidates: current B entries, re-drawn A
     values, and touched B values — any value outside those three sets
     has an unchanged B fate. *)
  let decided = Value.Tbl.create 64 in
  let decide v =
    if not (Value.Tbl.mem decided v) then begin
      Value.Tbl.replace decided v ();
      let k = Shard_key.shard_of ~shards v in
      let sh = t.shards.(k) in
      let drop () =
        if Value.Tbl.mem sh.entries_b v then begin
          Value.Tbl.remove sh.entries_b v;
          Value.Tbl.replace redrawn_b v ();
          dirty.(k) <- true
        end
      in
      match Value.Tbl.find_opt sh.entries_a v with
      | None -> drop ()
      | Some (a_entry : Sample.entry) -> (
          match Value.Tbl.find_opt profile.Profile.b.Profile.groups v with
          | None -> drop ()
          | Some rows ->
              let u_v = Budget.u_of resolved profile v in
              let need =
                Value.Tbl.mem redrawn_a v
                || Value.Tbl.mem touched_b v
                || (not (Value.Tbl.mem sh.entries_b v))
                || not
                     (Float.equal (Budget.u_of old_resolved old_profile v) u_v)
              in
              if need then begin
                Value.Tbl.replace sh.entries_b v
                  (Sample.draw_second_value ~base:t.base ~sentry ~rows
                     ~p_v:a_entry.Sample.p_v ~u_v v);
                Value.Tbl.replace redrawn_b v ();
                dirty.(k) <- true
              end)
    end
  in
  Array.iter
    (fun sh ->
      Value.Tbl.fold (fun v _ acc -> v :: acc) sh.entries_b []
      |> List.iter decide)
    t.shards;
  Value.Tbl.iter (fun v () -> decide v) redrawn_a;
  Value.Tbl.iter (fun v () -> decide v) touched_b;
  (* Pass 4 — compaction bookkeeping: surviving entries that were not
     re-drawn still index the old tables; remap them (identity when the
     batch had no deletes on that side). *)
  let remap_side proj redrawn remap has_deletes =
    if has_deletes then
      Array.iter
        (fun sh ->
          let tbl = proj sh in
          let keys = Value.Tbl.fold (fun v _ acc -> v :: acc) tbl [] in
          List.iter
            (fun v ->
              if not (Value.Tbl.mem redrawn v) then
                Value.Tbl.replace tbl v (remap_entry remap (Value.Tbl.find tbl v)))
            keys)
        t.shards
  in
  remap_side (fun sh -> sh.entries_a) redrawn_a remap_a
    (Array.length d.a.deletes > 0);
  remap_side (fun sh -> sh.entries_b) redrawn_b remap_b
    (Array.length d.b.deletes > 0);
  t.profile <- profile;
  t.resolved <- resolved;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 dirty
