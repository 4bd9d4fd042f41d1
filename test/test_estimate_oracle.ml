(* Differential test of the one estimate function against
   [Estimate_oracle], the pre-fold estimator kept verbatim: on every
   synopsis the sampler draws, [Estimate.run_checked_flat] answers exactly
   what the oracle's unchecked [run_with_breakdown_flat] printed, refusing
   only an empty filtered side. The cases the checked path used to refuse
   are generated on purpose: rates clamped to q_v = 0 (CSDL(1,.) at low
   theta) and filtered first sides that hold only sentries. *)

open Repro_relation
module Prng = Repro_util.Prng
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

let check_case seed =
  let c = draw_case seed in
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
        let open Csdl.Estimate in
        if
          bits b.estimate <> bits o.Oracle.estimate
          || b.filtered_a_tuples <> o.Oracle.filtered_a_tuples
          || b.filtered_b_tuples <> o.Oracle.filtered_b_tuples
          || bits b.selectivity_a <> bits o.Oracle.selectivity_a
          || bits b.virtual_sample_size <> bits o.Oracle.virtual_sample_size
          || b.contributing_values <> o.Oracle.contributing_values
        then
          fail "breakdown differs: estimate %h, oracle %h" b.estimate
            o.Oracle.estimate);
    (* the learner is not run, yet its config is still checked *)
    if not (empty_dl_input c o) then true
    else
      match checked ~dl_config:invalid_config c with
      | Error (Csdl.Fault.Bad_input _) -> true
      | Error f -> fail "invalid config: got %s" (Csdl.Fault.error_to_string f)
      | Ok _ -> fail "invalid config answered"
  end

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
    ]
