(* Differential test of the one estimate function against
   [Estimate_oracle], the pre-fold estimator kept verbatim: on every
   synopsis the sampler draws, [Estimate.run_checked_flat] answers exactly
   what the oracle's unchecked [run_with_breakdown_flat] printed, refusing
   only an empty filtered side. The cases the checked path used to refuse
   are generated on purpose: rates clamped to q_v = 0 (CSDL(1,.) at low
   theta) and filtered first sides that hold only sentries. *)

open Repro_relation
module Prng = Repro_util.Prng
module Obs = Repro_obs.Obs
module Oracle = Estimate_oracle

let schema =
  Schema.make
    [ ("k", Schema.T_int); ("attr", Schema.T_int); ("tag", Schema.T_string) ]

(* Each row's tag is unique within its table, so a predicate on tags can
   pass exactly the chosen sampled rows. *)
let table_of_counts counts =
  Table.of_rows schema
    (List.concat_map
       (fun (v, m) ->
         List.init m (fun i ->
             [| Value.Int v; Value.Int i; Value.Str (Printf.sprintf "%d-%d" v i) |]))
       counts)

(* Skewed: a few heavy values on the left, a light right side with values
   of its own. At theta <= 0.01 a CSDL(1,.) budget is below the sentry
   count and every q_v is 0. *)
let profile =
  lazy
    (Csdl.Profile.of_tables
       (table_of_counts
          (List.mapi
             (fun i m -> (i + 1, m))
             [ 400; 200; 130; 100; 80; 60; 50; 40; 30; 25; 20; 15 ]))
       "k"
       (table_of_counts
          (List.mapi
             (fun i m -> (i + 1, m))
             [ 3; 5; 2; 8; 1; 4; 6; 2; 3; 1; 2; 9; 4; 1; 7 ]))
       "k")

let specs =
  Csdl.Spec.csdl_variants @ [ Csdl.Spec.cs2; Csdl.Spec.cso; Csdl.Spec.cs2l ]

let thetas = [ 0.0001; 0.001; 0.01; 0.1; 1.0 ]
let pick prng l = List.nth l (Prng.int prng (List.length l))
let ops = Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* A predicate passing the sentry tuples of a random subset of the
   sample's values and nothing else: a sentry-only filtered side, or an
   empty one when the subset (or the spec's sentries) is empty. *)
let sentry_only prng (sample : Csdl.Sample.t) =
  Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries
  |> List.filter_map (fun (_, (e : Csdl.Sample.entry)) ->
         match e.Csdl.Sample.sentry_row with
         | Some r when Prng.bool prng ->
             let tag = (Table.row sample.Csdl.Sample.table r).(2) in
             Some (Predicate.Compare (Predicate.Eq, "tag", tag))
         | _ -> None)
  |> List.fold_left
       (fun acc p -> if acc = Predicate.False then p else Predicate.Or (acc, p))
       Predicate.False

let random_predicate prng sample =
  match Prng.int prng 6 with
  | 0 -> ("true", Predicate.True)
  | 1 | 2 -> ("sentry-only", sentry_only prng sample)
  | 3 ->
      ( "attr",
        Predicate.Compare (pick prng ops, "attr", Value.Int (Prng.int prng 6)) )
  | 4 ->
      ("key", Predicate.Compare (pick prng ops, "k", Value.Int (1 + Prng.int prng 15)))
  | _ ->
      ( "and",
        Predicate.And
          ( Predicate.Compare (Predicate.Le, "k", Value.Int (1 + Prng.int prng 15)),
            Predicate.Compare (Predicate.Lt, "attr", Value.Int (Prng.int prng 3)) ) )

type case = {
  spec : Csdl.Spec.t;
  theta : float;
  virtual_sample : bool;
  pred_a : Predicate.t;
  pred_b : Predicate.t;
  flat : Csdl.Synopsis_flat.t;
  what : string;
}

let draw_case seed =
  let prng = Prng.create seed in
  let spec = pick prng specs and theta = pick prng thetas in
  let virtual_sample = Prng.int prng 4 <> 0 in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A spec ~theta (Lazy.force profile)
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create (seed + 1)) in
  let kind_a, pred_a = random_predicate prng synopsis.Csdl.Synopsis.sample_a in
  let kind_b, pred_b = random_predicate prng synopsis.Csdl.Synopsis.sample_b in
  {
    spec;
    theta;
    virtual_sample;
    pred_a;
    pred_b;
    flat = Csdl.Synopsis_flat.of_synopsis synopsis;
    what =
      Printf.sprintf "seed %d: %s theta=%g pred_a=%s pred_b=%s virtual_sample=%b"
        seed (Csdl.Spec.to_string spec) theta kind_a kind_b virtual_sample;
  }

let oracle c =
  Oracle.run_with_breakdown_flat ~virtual_sample:c.virtual_sample
    ~pred_a:c.pred_a ~pred_b:c.pred_b c.flat

let checked ?dl_config c =
  Csdl.Estimate.run_checked_flat ?dl_config ~virtual_sample:c.virtual_sample
    ~pred_a:c.pred_a ~pred_b:c.pred_b c.flat

(* The oracle found evidence on both sides but fed the learner nothing. *)
let empty_dl_input c (o : Oracle.breakdown) =
  c.spec.Csdl.Spec.method_ = Csdl.Spec.Discrete_learning
  && o.Oracle.filtered_a_tuples > 0
  && o.Oracle.filtered_b_tuples > 0
  && o.Oracle.virtual_sample_size = 0.0

let bits = Int64.bits_of_float
let invalid_config = { Csdl.Discrete_learning.default_config with e = 0.01 }

(* Every breakdown field equal, floats by their bits. *)
let same_breakdown (b : Csdl.Estimate.breakdown) (o : Oracle.breakdown) =
  let open Csdl.Estimate in
  bits b.estimate = bits o.Oracle.estimate
  && b.filtered_a_tuples = o.Oracle.filtered_a_tuples
  && b.filtered_b_tuples = o.Oracle.filtered_b_tuples
  && bits b.selectivity_a = bits o.Oracle.selectivity_a
  && bits b.virtual_sample_size = bits o.Oracle.virtual_sample_size
  && b.contributing_values = o.Oracle.contributing_values

let compare_case c =
  let o = oracle c in
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) c.what in
  let empty side =
    if bits o.Oracle.estimate <> 0L then
      fail "oracle estimate %h on an empty side" o.Oracle.estimate;
    match checked c with
    | Error (Csdl.Fault.Empty_filtered_sample s) when s = side -> true
    | Error f -> fail "expected an empty side, got %s" (Csdl.Fault.error_to_string f)
    | Ok b -> fail "expected an empty side, got Ok %h" b.Csdl.Estimate.estimate
  in
  if o.Oracle.filtered_a_tuples = 0 then empty Csdl.Fault.A
  else if o.Oracle.filtered_b_tuples = 0 then empty Csdl.Fault.B
  else begin
    (match checked c with
    | Error f ->
        fail "oracle %h, got %s" o.Oracle.estimate (Csdl.Fault.error_to_string f)
    | Ok b ->
        if not (same_breakdown b o) then
          fail "breakdown differs: estimate %h, oracle %h"
            b.Csdl.Estimate.estimate o.Oracle.estimate);
    (* the learner is not run, yet its config is still checked *)
    if not (empty_dl_input c o) then true
    else
      match checked ~dl_config:invalid_config c with
      | Error (Csdl.Fault.Bad_input _) -> true
      | Error f -> fail "invalid config: got %s" (Csdl.Fault.error_to_string f)
      | Ok _ -> fail "invalid config answered"
  end

let check_case seed = compare_case (draw_case seed)
let cases = 1500

let prop_matches_oracle =
  QCheck.Test.make ~count:cases
    ~name:"run_checked_flat answers what the verbatim oracle printed"
    QCheck.(int_bound 1_000_000_000)
    check_case

(* The generator reaches the cases the property is about. *)
let test_generator_coverage () =
  let zero_q = ref 0 and empty_input = ref 0 in
  for seed = 0 to cases - 1 do
    let c = draw_case seed in
    let q_v = c.flat.Csdl.Synopsis_flat.a.Csdl.Synopsis_flat.q_v in
    if Array.length q_v > 0 && Array.for_all (fun q -> q = 0.0) q_v then
      incr zero_q;
    if empty_dl_input c (oracle c) then incr empty_input
  done;
  Alcotest.(check bool)
    (Printf.sprintf "q_v = 0 synopses drawn (%d)" !zero_q)
    true (!zero_q >= 50);
  Alcotest.(check bool)
    (Printf.sprintf "answerable empty DL inputs (%d)" !empty_input)
    true (!empty_input >= 50)

(* ---------------- the mask evaluator ---------------- *)

(* Sides with every column kind the flat stores: unboxed ints ([k],
   [attr], negatives included), unboxed floats ([f]), floats with Nulls
   and mixed numbers with Nulls (both boxed), unique tags, and strings
   with Nulls for LIKE. The first side has 320 values, so a theta of 1
   samples more than 256 of them. *)
let rich_schema =
  Schema.make
    [
      ("k", Schema.T_int); ("attr", Schema.T_int); ("tag", Schema.T_string);
      ("f", Schema.T_float); ("fn", Schema.T_float); ("mixed", Schema.T_float);
      ("sn", Schema.T_string);
    ]

let words = [| "alpha"; "beta"; "alphabet"; "gamma"; "" |]

let rich_table counts =
  Table.of_rows rich_schema
    (List.concat_map
       (fun (v, m) ->
         List.init m (fun i ->
             [|
               Value.Int v;
               Value.Int ((((v * 7) + (i * 13)) mod 50) - 10);
               Value.Str (Printf.sprintf "%d-%d" v i);
               Value.Float ((float_of_int (v mod 17) *. 0.25) -. 1.0);
               (if (v + i) mod 6 = 0 then Value.Null
                else Value.Float (float_of_int i *. 1.5));
               (if (v + i) mod 7 = 0 then Value.Null
                else if i mod 3 = 0 then Value.Int (v mod 9)
                else Value.Float (float_of_int (v mod 9) +. 0.5));
               (if v * (i + 1) mod 5 = 0 then Value.Null
                else Value.Str words.((v + i) mod 5));
             |]))
       counts)

let rich_profile =
  lazy
    (Csdl.Profile.of_tables
       (rich_table (List.init 320 (fun i -> (i + 1, 1 + (i * 7 mod 5)))))
       "k"
       (rich_table
          (List.init 200 (fun i -> ((2 * i) + 1, 1 + (i * 3 mod 4)))))
       "k")

let int_constants prng =
  let k = Prng.int prng 360 - 20 in
  [|
    min_int; min_int + 1; max_int; max_int - 1; -11; -10; 0; 39; 40; 41;
    1_000_000; k - 1; k; k + 1;
  |]
  |> fun a -> a.(Prng.int prng (Array.length a))

let float_constants =
  [| 0.5; -1.0; -0.75; 3.0; 1e300; -0.0; Float.nan; Float.infinity;
     Float.neg_infinity |]

let pick_array prng a = a.(Prng.int prng (Array.length a))

let rich_leaf prng =
  let op = pick prng ops in
  let cmp col c = Predicate.Compare (op, col, c) in
  match Prng.int prng 12 with
  | 0 | 1 | 2 -> cmp (pick prng [ "k"; "attr" ]) (Value.Int (int_constants prng))
  | 3 ->
      cmp (pick prng [ "k"; "attr" ])
        (pick prng
           [
             Value.Float (float_of_int (int_constants prng) +. 0.5);
             Value.Float (pick_array prng float_constants);
             Value.Null;
             Value.Str "40";
           ])
  | 4 | 5 ->
      cmp
        (pick prng [ "f"; "fn"; "mixed" ])
        (pick prng
           [
             Value.Float (pick_array prng float_constants);
             Value.Int (Prng.int prng 12 - 2);
             Value.Null;
             Value.Str "a";
           ])
  | 6 ->
      cmp (pick prng [ "sn"; "tag" ])
        (pick prng
           [ Value.Str (pick_array prng words); Value.Str "1-0"; Value.Int 3; Value.Null ])
  | 7 ->
      Predicate.Like_prefix
        (pick prng [ "sn"; "tag"; "k"; "f"; "fn" ], pick prng [ "al"; "1"; ""; "z" ])
  | 8 ->
      Predicate.Like_contains
        (pick prng [ "sn"; "tag"; "attr"; "mixed" ], pick prng [ "ph"; "-1"; ""; "q" ])
  | 9 -> pick prng [ Predicate.True; Predicate.False ]
  | 10 -> cmp "k" (Value.Int (1 + Prng.int prng 330))
  | _ -> cmp "attr" (Value.Int (Prng.int prng 50 - 10))

(* A predicate tree at least [min_depth] connectives deep on its left
   spine, and at most [max_depth]. *)
let rec rich_tree prng ~min_depth ~max_depth =
  if max_depth = 0 || (min_depth <= 0 && Prng.int prng 3 = 0) then
    rich_leaf prng
  else
    let sub () =
      rich_tree prng ~min_depth:(min_depth - 1) ~max_depth:(max_depth - 1)
    in
    match Prng.int prng 3 with
    | 0 ->
        let a = sub () in
        Predicate.And (a, sub ())
    | 1 ->
        let a = sub () in
        Predicate.Or (a, sub ())
    | _ -> Predicate.Not (sub ())

let nesting p =
  let rec go = function
    | Predicate.And (a, b) | Predicate.Or (a, b) -> 1 + max (go a) (go b)
    | Predicate.Not a -> 1 + go a
    | _ -> 0
  in
  go p

let rich_predicate prng sample =
  match Prng.int prng 10 with
  | 0 -> ("true", Predicate.True)
  | 1 -> ("sentry-only", sentry_only prng sample)
  | 2 ->
      ( "unknown column",
        Predicate.And
          ( rich_tree prng ~min_depth:0 ~max_depth:2,
            Predicate.Compare (pick prng ops, "nope", Value.Int 1) ) )
  | 3 | 4 -> ("leaf", rich_leaf prng)
  | _ -> ("tree", rich_tree prng ~min_depth:3 ~max_depth:5)

let draw_rich_case seed =
  let prng = Prng.create seed in
  let spec = pick prng specs and theta = pick prng thetas in
  let virtual_sample = Prng.int prng 4 <> 0 in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A spec ~theta (Lazy.force rich_profile)
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create (seed + 1)) in
  let kind_a, pred_a = rich_predicate prng synopsis.Csdl.Synopsis.sample_a in
  let kind_b, pred_b = rich_predicate prng synopsis.Csdl.Synopsis.sample_b in
  {
    spec;
    theta;
    virtual_sample;
    pred_a;
    pred_b;
    flat = Csdl.Synopsis_flat.of_synopsis synopsis;
    what =
      Printf.sprintf "seed %d: %s theta=%g pred_a=%s (%s) pred_b=%s (%s)"
        seed (Csdl.Spec.to_string spec) theta kind_a
        (Predicate.to_string pred_a) kind_b (Predicate.to_string pred_b);
  }

(* The oracle refuses an unknown column with [Invalid_argument], worded
   as [Bad_input] must be. *)
let check_rich_case seed =
  let c = draw_rich_case seed in
  match oracle c with
  | exception Invalid_argument msg -> (
      match checked c with
      | Error (Csdl.Fault.Bad_input m) when m = msg -> true
      | Error f ->
          QCheck.Test.fail_reportf "%s: expected Bad_input %S, got %s" c.what
            msg (Csdl.Fault.error_to_string f)
      | Ok _ -> QCheck.Test.fail_reportf "%s: answered %S" c.what msg)
  | _ -> compare_case c

let rich_cases = 800

let prop_masks_match_oracle =
  QCheck.Test.make ~count:rich_cases
    ~name:"mask evaluator answers what the oracle's closures did"
    QCheck.(int_bound 1_000_000_000)
    check_rich_case

let columns_of (side : Csdl.Synopsis_flat.side) =
  Array.to_list side.Csdl.Synopsis_flat.cols

(* The rich generator reaches what the property is about. *)
let test_rich_coverage () =
  let deep = ref 0 and wide = ref 0 and sentry_side = ref 0 in
  let floats = ref 0 and boxed_nulls = ref 0 and unknown = ref 0 in
  for seed = 0 to rich_cases - 1 do
    let c = draw_rich_case seed in
    let a = c.flat.Csdl.Synopsis_flat.a and b = c.flat.Csdl.Synopsis_flat.b in
    let answered, evidence =
      match oracle c with
      | o -> (true, o.Oracle.filtered_a_tuples > 0 && o.Oracle.filtered_b_tuples > 0)
      | exception Invalid_argument _ -> (false, false)
    in
    if evidence && max (nesting c.pred_a) (nesting c.pred_b) >= 3 then incr deep;
    if Array.length a.Csdl.Synopsis_flat.values > 256 then incr wide;
    if
      Array.length a.Csdl.Synopsis_flat.values > 0
      && Bigarray.Array1.dim a.Csdl.Synopsis_flat.rows = 0
    then incr sentry_side;
    if not answered then incr unknown;
    List.iter
      (function
        | Csdl.Synopsis_flat.Floats _ -> incr floats
        | Csdl.Synopsis_flat.Boxed col ->
            if Array.exists (fun v -> v = Value.Null) col then incr boxed_nulls
        | Csdl.Synopsis_flat.Ints _ -> ())
      (columns_of a @ columns_of b)
  done;
  List.iter
    (fun (what, n, least) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d)" what !n) true (!n >= least))
    [
      ("trees three deep over evidence on both sides", deep, 100);
      ("first sides over 256 values", wide, 50);
      ("first sides of sentries only", sentry_side, 20);
      ("Floats columns", floats, 200);
      ("boxed columns holding Nulls", boxed_nulls, 200);
      ("unknown columns", unknown, 50);
    ]

(* Each flat side keeps the view a [True] scan gives, and the one a scan
   of a predicate passing every tuple gives. *)
let test_unfiltered_view () =
  let same what (v : Csdl.Synopsis_flat.view) (o : Oracle.filtered_side) =
    Alcotest.(check (array int)) (what ^ ": counts") o.Oracle.counts v.counts;
    Alcotest.(check (array bool)) (what ^ ": sentries") o.Oracle.sentries
      v.sentries;
    Alcotest.(check int) (what ^ ": tuples") o.Oracle.tuples v.tuples
  in
  for seed = 0 to 99 do
    let c = if seed mod 2 = 0 then draw_case seed else draw_rich_case seed in
    List.iter
      (fun (name, (side : Csdl.Synopsis_flat.side)) ->
        let what = Printf.sprintf "%s, side %s" c.what name in
        same what side.unfiltered (Oracle.filter_side side Predicate.True);
        same (what ^ ", Not False") side.unfiltered
          (Oracle.filter_side side (Predicate.Not Predicate.False)))
      [ ("A", c.flat.Csdl.Synopsis_flat.a); ("B", c.flat.Csdl.Synopsis_flat.b) ]
  done

(* ---------------- the per-flat learner memo ---------------- *)

(* What the one function answers agrees with the oracle's breakdown: the
   side the oracle filtered to nothing is empty, else every field is
   equal. *)
let agrees (o : Oracle.breakdown) = function
  | Ok b ->
      o.Oracle.filtered_a_tuples > 0
      && o.Oracle.filtered_b_tuples > 0
      && same_breakdown b o
  | Error (Csdl.Fault.Empty_filtered_sample side) ->
      bits o.Oracle.estimate = 0L
      &&
      if o.Oracle.filtered_a_tuples = 0 then side = Csdl.Fault.A
      else o.Oracle.filtered_b_tuples = 0 && side = Csdl.Fault.B
  | Error _ -> false

let dl_specs =
  List.filter
    (fun s -> s.Csdl.Spec.method_ = Csdl.Spec.Discrete_learning)
    Csdl.Spec.csdl_variants

(* A fresh flat of a discrete-learning spec, with its synopsis for
   predicates; [spec] and [theta] are drawn unless given. *)
let dl_flat ?spec ?theta seed =
  let prng = Prng.create seed in
  let spec = match spec with Some s -> s | None -> pick prng dl_specs in
  let theta =
    match theta with Some t -> t | None -> pick prng [ 0.01; 0.1; 1.0 ]
  in
  let est =
    Csdl.Estimator.prepare ~sample_first:`A spec ~theta (Lazy.force profile)
  in
  let synopsis = Csdl.Estimator.draw est (Prng.create (seed + 1)) in
  (synopsis, Csdl.Synopsis_flat.of_synopsis synopsis)

let observations obs name =
  match Obs.registry obs with
  | None -> 0
  | Some registry ->
      List.fold_left
        (fun acc (n, _, point) ->
          match point with
          | Repro_obs.Metrics.P_histogram { count; _ } when n = name ->
              acc + count
          | _ -> acc)
        0
        (Repro_obs.Metrics.Registry.snapshot registry)

let solves obs = observations obs "dl.virtual_sample.size"
let theta_diff = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_diff

(* With no predicate on the first side the learner runs once per flat,
   whatever the second side asks. *)
let test_learns_once () =
  let synopsis, flat = dl_flat ~spec:theta_diff ~theta:0.1 3 in
  let obs = Obs.create () in
  let prng = Prng.create 4 in
  for i = 1 to 100 do
    let pred_b =
      if i = 1 then Predicate.True
      else snd (random_predicate prng synopsis.Csdl.Synopsis.sample_b)
    in
    let o = Oracle.run_with_breakdown_flat ~pred_b flat in
    if not (agrees o (Csdl.Estimate.run_checked_flat ~obs ~pred_b flat)) then
      Alcotest.failf "estimate %d differs from the oracle (%h)" i
        o.Oracle.estimate
  done;
  Alcotest.(check int) "one solve for 100 estimates" 1 (solves obs)

(* An empty filtered side answers before any solve, filtered first side
   or not. *)
let test_empty_side_solves_nothing () =
  let obs = Obs.create () in
  List.iter
    (fun pred_a ->
      let _, flat = dl_flat ~spec:theta_diff ~theta:0.1 3 in
      match
        Csdl.Estimate.run_checked_flat ~obs ~pred_a ~pred_b:Predicate.False
          flat
      with
      | Error (Csdl.Fault.Empty_filtered_sample Csdl.Fault.B) -> ()
      | Error f -> Alcotest.failf "got %s" (Csdl.Fault.error_to_string f)
      | Ok b -> Alcotest.failf "got Ok %h" b.Csdl.Estimate.estimate)
    [
      Predicate.True; Predicate.Compare (Predicate.Ge, "k", Value.Int 1);
    ];
  Alcotest.(check int) "no solve" 0 (solves obs)

(* A first side's filtered per-position counts, counted row by row from
   the synopsis' sample: the memo's key, derived without the flat. *)
let filtered_counts (sample : Csdl.Sample.t) pred =
  let table = sample.Csdl.Sample.table in
  let pass = Predicate.compile pred (Table.schema table) in
  Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries
  |> List.map (fun (_, (e : Csdl.Sample.entry)) ->
         Array.fold_left
           (fun c r -> if pass (Table.row table r) then c + 1 else c)
           0 e.Csdl.Sample.rows)

(* Predicates on the first side whose counts repeat and differ: an
   equivalent of no predicate, predicates that pass the same rows under
   other constants, and, for every position, one that drops a single
   sampled row there, so two keys that differ in one position only are
   asked of every position. *)
let first_side_predicates (sample : Csdl.Sample.t) =
  let drop_one =
    Csdl.Shard_key.sorted_bindings sample.Csdl.Sample.entries
    |> List.filter_map (fun (_, (e : Csdl.Sample.entry)) ->
           let rows = e.Csdl.Sample.rows in
           if Array.length rows = 0 then None
           else
             let tag = (Table.row sample.Csdl.Sample.table rows.(0)).(2) in
             Some Predicate.(Not (Compare (Eq, "tag", tag))))
  in
  let cmp op col k = Predicate.Compare (op, col, Value.Int k) in
  [
    cmp Predicate.Ge "k" 1;
    cmp Predicate.Gt "k" 0;
    cmp Predicate.Le "k" 6;
    cmp Predicate.Lt "k" 7;
    cmp Predicate.Lt "attr" 3;
    cmp Predicate.Le "attr" 2;
    Predicate.And (cmp Predicate.Le "k" 9, cmp Predicate.Ge "attr" 1);
    cmp Predicate.Ne "attr" 0;
  ]
  @ drop_one

(* On one flat, estimates cycle through predicates on the first side; the
   learner runs once per distinct counts array it is given, however many
   predicates (or requests) lead to it. *)
let test_learns_once_per_first_side () =
  let synopsis, flat = dl_flat ~spec:theta_diff ~theta:0.5 3 in
  let sample_a = synopsis.Csdl.Synopsis.sample_a in
  let preds = first_side_predicates sample_a in
  let obs = Obs.create () in
  let solving = ref [] and estimates = ref 0 in
  for round = 1 to 3 do
    List.iteri
      (fun i pred_a ->
        let o = Oracle.run_with_breakdown_flat ~pred_a flat in
        if not (agrees o (Csdl.Estimate.run_checked_flat ~obs ~pred_a flat))
        then
          Alcotest.failf "round %d, predicate %d (%s): oracle %h" round i
            (Predicate.to_string pred_a) o.Oracle.estimate;
        (* the learner runs: both sides hold evidence and its input is
           not empty *)
        if o.Oracle.virtual_sample_size > 0.0 then begin
          incr estimates;
          solving := filtered_counts sample_a pred_a :: !solving
        end)
      preds
  done;
  let distinct = List.length (List.sort_uniq compare !solving) in
  Alcotest.(check bool)
    (Printf.sprintf "predicates repeat first sides (%d distinct of %d)" distinct
       (List.length preds))
    true
    (distinct > 8 && distinct < List.length preds);
  Alcotest.(check int)
    (Printf.sprintf "one solve per distinct first side (%d estimates)"
       !estimates)
    distinct (solves obs)

(* Many light values: an entry holds 2,000 x_v, so filling it takes
   about as long as the solve before it. *)
let wide_profile =
  lazy
    (let counts m = List.init 2000 (fun i -> (i + 1, 1 + (i * 7 mod m))) in
     Csdl.Profile.of_tables
       (table_of_counts (counts 4))
       "k"
       (table_of_counts (counts 3))
       "k")

(* Four domains walk 100 fresh flats of one synopsis (empty memos over
   the same arrays) in the same order. On each flat, domain [d] asks the
   case's first-side predicates starting from the [d]-th, so the domains
   insert different keys into one memo at once and then read the keys
   the others inserted, and race for each key; every answer must be the
   oracle's, bit for bit. *)
let test_racing_domains () =
  let cmp op col k = Predicate.Compare (op, col, Value.Int k) in
  List.iter
    (fun (spec, theta, preds_a, pred_b) ->
      let est =
        Csdl.Estimator.prepare ~sample_first:`A spec ~theta
          (Lazy.force wide_profile)
      in
      let flat =
        Csdl.Synopsis_flat.of_synopsis
          (Csdl.Estimator.draw est (Prng.create 9))
      in
      let preds_a = Array.of_list preds_a in
      let k = Array.length preds_a in
      let oracles =
        Array.map
          (fun pred_a -> Oracle.run_with_breakdown_flat ~pred_a ~pred_b flat)
          preds_a
      in
      let flats =
        Array.init 100 (fun _ ->
            {
              flat with
              Csdl.Synopsis_flat.dl_memo =
                Atomic.make Csdl.Synopsis_flat.empty_memo;
            })
      in
      let ready = Atomic.make 0 in
      let walk d () =
        Atomic.incr ready;
        while Atomic.get ready < 4 do
          Domain.cpu_relax ()
        done;
        Array.map
          (fun flat ->
            Array.init k (fun i ->
                let p = (d + i) mod k in
                ( p,
                  Csdl.Estimate.run_checked_flat ~pred_a:preds_a.(p) ~pred_b
                    flat )))
          flats
      in
      List.init 4 (fun d -> Domain.spawn (walk d))
      |> List.map Domain.join
      |> List.iteri (fun d answers ->
             Array.iteri
               (fun i ->
                 Array.iter (fun (p, answer) ->
                     if not (agrees oracles.(p) answer) then
                       Alcotest.failf "%s: domain %d, flat %d, %s: oracle %h"
                         (Csdl.Spec.to_string spec) d i
                         (Predicate.to_string preds_a.(p))
                         oracles.(p).Oracle.estimate))
               answers))
    [
      (theta_diff, 0.5, [ Predicate.True ], Predicate.True);
      ( Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff,
        0.3,
        [ Predicate.True ],
        cmp Predicate.Lt "attr" 2 );
      ( theta_diff,
        0.5,
        [
          Predicate.True;
          cmp Predicate.Le "k" 1000;
          cmp Predicate.Lt "attr" 1;
          Predicate.And (cmp Predicate.Gt "k" 500, cmp Predicate.Ge "attr" 1);
        ],
        Predicate.True );
      ( Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_diff,
        0.3,
        [
          cmp Predicate.Gt "k" 1500;
          cmp Predicate.Ne "attr" 1;
          cmp Predicate.Le "k" 700;
          cmp Predicate.Ge "attr" 1;
        ],
        cmp Predicate.Lt "attr" 2 );
    ]

(* The memo answers only the default learner with the virtual sample on:
   before and after it holds the first side's entry, any other call
   solves for itself, filtered first side or not. *)
let test_other_calls_solve () =
  let config = { Csdl.Discrete_learning.default_config with linear_grid_points = 8 } in
  let kinds =
    [
      ("no predicate", Predicate.True);
      ("filtered", Predicate.Compare (Predicate.Lt, "attr", Value.Int 20));
    ]
  in
  let moved_config = Array.make 2 0 and moved_virtual = Array.make 2 0 in
  for seed = 0 to 39 do
    List.iteri
      (fun kind (what, pred_a) ->
        let _, flat = dl_flat ~theta:0.1 (2000 + seed) in
        let oracle ?dl_config ?virtual_sample () =
          Oracle.run_with_breakdown_flat ?dl_config ?virtual_sample ~pred_a flat
        in
        let default = oracle () in
        let other = oracle ~dl_config:config () in
        let raw = oracle ~virtual_sample:false () in
        if bits other.Oracle.estimate <> bits default.Oracle.estimate then
          moved_config.(kind) <- moved_config.(kind) + 1;
        if bits raw.Oracle.estimate <> bits default.Oracle.estimate then
          moved_virtual.(kind) <- moved_virtual.(kind) + 1;
        let expect call o r =
          if not (agrees o r) then
            Alcotest.failf "seed %d, %s, %s: differs from the oracle (%h)" seed
              what call o.Oracle.estimate
        in
        let run = Csdl.Estimate.run_checked_flat ~pred_a in
        expect "config, empty memo" other (run ~dl_config:config flat);
        expect "no virtual sample, empty memo" raw
          (run ~virtual_sample:false flat);
        expect "default" default (run flat);
        expect "config, filled memo" other (run ~dl_config:config flat);
        expect "no virtual sample, filled memo" raw
          (run ~virtual_sample:false flat);
        (* an empty side answers before the config is looked at *)
        (match run ~dl_config:invalid_config flat with
        | Error (Csdl.Fault.Bad_input _)
          when default.Oracle.filtered_a_tuples > 0
               && default.Oracle.filtered_b_tuples > 0 ->
            ()
        | Error (Csdl.Fault.Empty_filtered_sample _) as r
          when agrees default r ->
            ()
        | r ->
            Alcotest.failf "seed %d, %s, invalid config: %s" seed what
              (match r with
              | Ok b -> Printf.sprintf "Ok %h" b.Csdl.Estimate.estimate
              | Error f -> Csdl.Fault.error_to_string f));
        expect "default again" default (run flat))
      kinds
  done;
  (* the calls above differ from the default, so a memo that answered
     them would show *)
  List.iteri
    (fun kind (what, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: config moves answers (%d of 40)" what
           moved_config.(kind))
        true
        (moved_config.(kind) >= 10);
      Alcotest.(check bool)
        (Printf.sprintf "%s: virtual sample moves answers (%d of 40)" what
           moved_virtual.(kind))
        true
        (moved_virtual.(kind) >= 10))
    kinds

(* More distinct first sides than the memo's bound admits: every answer
   is still the oracle's; the inputs asked once the memo was full solve
   again when re-asked, and the ones kept before do not. *)
let test_bounded_memo () =
  let est =
    Csdl.Estimator.prepare ~sample_first:`A theta_diff ~theta:1.0
      (Lazy.force wide_profile)
  in
  let flat =
    Csdl.Synopsis_flat.of_synopsis (Csdl.Estimator.draw est (Prng.create 9))
  in
  let preds =
    Array.init 24 (fun i ->
        Predicate.Compare (Predicate.Le, "k", Value.Int (80 * (i + 1))))
  in
  let oracles =
    Array.map (fun pred_a -> Oracle.run_with_breakdown_flat ~pred_a flat) preds
  in
  let obs = Obs.create () in
  (* per predicate, whether asking it ran the learner *)
  let ask round =
    Array.mapi
      (fun i pred_a ->
        let before = solves obs in
        let r = Csdl.Estimate.run_checked_flat ~obs ~pred_a flat in
        if not (agrees oracles.(i) r) then
          Alcotest.failf "round %d, %s: differs from the oracle (%h)" round
            (Predicate.to_string pred_a) oracles.(i).Oracle.estimate;
        solves obs > before)
      preds
  in
  let first = ask 1 in
  Alcotest.(check bool) "every first ask solves" true
    (Array.for_all Fun.id first);
  let again = ask 2 in
  let kept =
    match Array.find_index Fun.id again with Some k -> k | None -> 24
  in
  Alcotest.(check bool)
    (Printf.sprintf "some inputs kept, some solve again (%d kept of 24)" kept)
    true (kept > 0 && kept < 24);
  Alcotest.(check bool) "re-asked inputs past the bound solve" true
    (Array.for_all Fun.id (Array.sub again kept (24 - kept)));
  Alcotest.(check (array bool)) "kept entries stay" again (ask 3);
  let words =
    Obj.reachable_words (Obj.repr (Atomic.get flat.Csdl.Synopsis_flat.dl_memo))
  in
  Alcotest.(check bool)
    (Printf.sprintf "memo within 2^16 words (%d)" words)
    true (words <= 1 lsl 16)

let () =
  Alcotest.run "csdl_estimate_oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 17 |])
            prop_matches_oracle;
        ] );
      ( "masks",
        [
          Alcotest.test_case "generator coverage" `Quick test_rich_coverage;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 26 |])
            prop_masks_match_oracle;
          Alcotest.test_case "the stored unfiltered view is a True scan"
            `Quick test_unfiltered_view;
        ] );
      ( "slot",
        [
          Alcotest.test_case "one solve per synopsis" `Quick test_learns_once;
          Alcotest.test_case "one solve per distinct first side" `Quick
            test_learns_once_per_first_side;
          Alcotest.test_case "no solve behind an empty side" `Quick
            test_empty_side_solves_nothing;
          Alcotest.test_case "racing domains match the oracle" `Quick
            test_racing_domains;
          Alcotest.test_case "other calls solve for themselves" `Quick
            test_other_calls_solve;
          Alcotest.test_case "a full memo solves what it cannot keep" `Quick
            test_bounded_memo;
        ] );
    ]
