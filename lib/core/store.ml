open Repro_relation

type entry = {
  table_a : string;
  table_b : string;
  swapped : bool;
  fingerprint_a : int64;
  fingerprint_b : int64;
  fingerprinted : Table.t * Table.t;
      (* the data [fingerprint_a] and [fingerprint_b] were computed from
         (or, after a load, checked against) *)
  prng_key : string;
  shards : int;
  sentinels : Sentinel.t list;
  synopsis : Synopsis.t;
  flat : Synopsis_flat.t;
      (* frozen once at registration/load; every estimate reuses it *)
}

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 16

(* Graphs share base tables, and tables are never mutated: a table that
   an entry already holds (physically) has the fingerprint recorded there. *)
let fingerprint (store : t) table =
  let recorded entry =
    let data_a, data_b = entry.fingerprinted in
    if data_a == table then Some entry.fingerprint_a
    else if data_b == table then Some entry.fingerprint_b
    else None
  in
  match Seq.find_map recorded (Hashtbl.to_seq_values store) with
  | Some fp -> fp
  | None -> Table.fingerprint table

let add ?(prng_key = "") ?(shards = 1) store ~key ~table_a ~table_b estimator
    synopsis =
  if shards < 1 then invalid_arg "Store.add: shards must be >= 1";
  let swapped = Estimator.swapped estimator in
  let profile = Estimator.profile estimator in
  (* the estimator's profile is in sampler orientation: its A side sits on
     [table_b]'s data when the estimator swapped *)
  let first = profile.Profile.a.Profile.table
  and second = profile.Profile.b.Profile.table in
  let data_a, data_b = if swapped then (second, first) else (first, second) in
  let fingerprint_a = fingerprint store data_a in
  let fingerprint_b = fingerprint store data_b in
  let flat = Synopsis_flat.of_synopsis synopsis in
  (* sentinels are seeded in user-facing orientation so the store entry
     carries queries phrased the way clients phrase them; baselines are
     the fresh synopsis's own q-errors, the reference drift is measured
     against *)
  let sentinels =
    Sentinel.seed (if swapped then Profile.swap profile else profile)
    |> Sentinel.with_baselines flat ~swapped
  in
  Hashtbl.replace store key
    {
      table_a;
      table_b;
      swapped;
      fingerprint_a;
      fingerprint_b;
      fingerprinted = (data_a, data_b);
      prng_key;
      shards;
      sentinels;
      synopsis;
      flat;
    }

let keys store = Hashtbl.fold (fun k _ acc -> k :: acc) store [] |> List.sort compare
let mem store key = Hashtbl.mem store key
let remove store key = Hashtbl.remove store key

let sentinels store key =
  match Hashtbl.find_opt store key with
  | Some entry -> entry.sentinels
  | None -> []

type info = {
  i_table_a : string;
  i_table_b : string;
  i_swapped : bool;
  i_theta : float;
  i_variant : string;
  i_prng_key : string;
  i_shards : int;
  i_tuples : int;
  i_fingerprint_a : int64;
  i_fingerprint_b : int64;
}

let info store key =
  Option.map
    (fun entry ->
      {
        i_table_a = entry.table_a;
        i_table_b = entry.table_b;
        i_swapped = entry.swapped;
        i_theta = entry.synopsis.Synopsis.resolved.Budget.theta;
        i_variant =
          Spec.to_string entry.synopsis.Synopsis.resolved.Budget.spec;
        i_prng_key = entry.prng_key;
        i_shards = entry.shards;
        i_tuples = Synopsis.size_tuples entry.synopsis;
        i_fingerprint_a = entry.fingerprint_a;
        i_fingerprint_b = entry.fingerprint_b;
      })
    (Hashtbl.find_opt store key)

let estimate ?obs ?dl_config ?(pred_a = Predicate.True)
    ?(pred_b = Predicate.True) store ~key =
  let entry = Hashtbl.find store key in
  let pred_a, pred_b =
    if entry.swapped then (pred_b, pred_a) else (pred_a, pred_b)
  in
  Estimate.run_checked_flat ?obs ?dl_config ~pred_a ~pred_b entry.flat
  |> Estimate.value |> Fault.get_ok

let total_tuples store =
  Hashtbl.fold
    (fun _ entry acc -> acc + Synopsis.size_tuples entry.synopsis)
    store 0

(* ---------------- persistence (via Synopsis_store) ---------------- *)

let save store path =
  let entries =
    Hashtbl.fold
      (fun key entry acc ->
        {
          Synopsis_store.key;
          table_a = entry.table_a;
          table_b = entry.table_b;
          swapped = entry.swapped;
          fingerprint_a = entry.fingerprint_a;
          fingerprint_b = entry.fingerprint_b;
          prng_key = entry.prng_key;
          shards = entry.shards;
          sentinels = entry.sentinels;
          synopsis = entry.synopsis;
        }
        :: acc)
      store []
    (* deterministic file bytes regardless of registration order *)
    |> List.sort (fun (a : Synopsis_store.stored) b -> compare a.key b.key)
  in
  Synopsis_store.write ~path entries

(* The decoder checked each sample's table against the recorded
   fingerprint of its side; the samples are in sampler orientation. *)
let stored_data (s : Synopsis_store.stored) =
  let first = s.synopsis.Synopsis.sample_a.Sample.table
  and second = s.synopsis.Synopsis.sample_b.Sample.table in
  if s.swapped then (second, first) else (first, second)

let load_result ~resolve_table path =
  Result.map
    (fun entries ->
      let store = create () in
      List.iter
        (fun (s : Synopsis_store.stored) ->
          Hashtbl.replace store s.Synopsis_store.key
            {
              table_a = s.Synopsis_store.table_a;
              table_b = s.Synopsis_store.table_b;
              swapped = s.Synopsis_store.swapped;
              fingerprint_a = s.Synopsis_store.fingerprint_a;
              fingerprint_b = s.Synopsis_store.fingerprint_b;
              fingerprinted = stored_data s;
              prng_key = s.Synopsis_store.prng_key;
              shards = s.Synopsis_store.shards;
              sentinels = s.Synopsis_store.sentinels;
              synopsis = s.Synopsis_store.synopsis;
              flat = Synopsis_flat.of_synopsis s.Synopsis_store.synopsis;
            })
        entries;
      store)
    (Synopsis_store.read ~resolve_table ~path)

let load ~resolve_table path =
  Fault.get_ok ~context:path (load_result ~resolve_table path)
