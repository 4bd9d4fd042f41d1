(* Tests for the two-level sampler with sentries and the synopsis. *)

open Repro_relation
module Prng = Repro_util.Prng

let schema = Schema.make [ ("k", Schema.T_int); ("payload", Schema.T_string) ]

let table_of_counts counts =
  let rows =
    List.concat_map
      (fun (v, m) ->
        List.init m (fun i -> [| Value.Int v; Value.Str (Printf.sprintf "%d-%d" v i) |]))
      counts
  in
  Table.of_rows schema rows

let profile_of counts_a counts_b =
  Csdl.Profile.of_tables (table_of_counts counts_a) "k" (table_of_counts counts_b) "k"

let counts_mid = List.init 10 (fun i -> (i, 10 + i))
let profile_mid = lazy (profile_of counts_mid counts_mid)

let resolve spec theta profile = Csdl.Budget.resolve spec ~theta profile

let draw_synopsis ?(seed = 1) ?(theta = 0.3) ?(spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta)
    profile =
  let resolved = resolve spec theta profile in
  Csdl.Synopsis.draw (Prng.create seed) ~profile ~resolved

(* ------------------------------------------------------------------ *)
(* draw_entry                                                          *)
(* ------------------------------------------------------------------ *)

let test_draw_entry_sentry_always_present () =
  let prng = Prng.create 3 in
  for _ = 1 to 100 do
    let e = Csdl.Sample.draw_entry prng ~sentry:true ~rows:[| 5; 6; 7 |] ~p_v:1.0 ~q_v:0.0 in
    (match e.Csdl.Sample.sentry_row with
    | Some r when r >= 5 && r <= 7 -> ()
    | Some r -> Alcotest.failf "sentry out of group: %d" r
    | None -> Alcotest.fail "sentry missing");
    Alcotest.(check int) "q=0 draws nothing else" 0 (Array.length e.Csdl.Sample.rows)
  done

let test_draw_entry_sentry_excluded_from_rows () =
  let prng = Prng.create 4 in
  for _ = 1 to 200 do
    let e =
      Csdl.Sample.draw_entry prng ~sentry:true ~rows:[| 1; 2; 3; 4 |] ~p_v:1.0 ~q_v:1.0
    in
    let sentry = Option.get e.Csdl.Sample.sentry_row in
    Alcotest.(check int) "q=1 draws all others" 3 (Array.length e.Csdl.Sample.rows);
    if Array.exists (fun r -> r = sentry) e.Csdl.Sample.rows then
      Alcotest.fail "sentry duplicated in rows";
    let all = List.sort compare (sentry :: Array.to_list e.Csdl.Sample.rows) in
    Alcotest.(check (list int)) "covers the group" [ 1; 2; 3; 4 ] all
  done

let test_draw_entry_no_sentry () =
  let prng = Prng.create 5 in
  let e = Csdl.Sample.draw_entry prng ~sentry:false ~rows:[| 8; 9 |] ~p_v:0.5 ~q_v:1.0 in
  Alcotest.(check (option int)) "no sentry" None e.Csdl.Sample.sentry_row;
  Alcotest.(check int) "all rows" 2 (Array.length e.Csdl.Sample.rows)

let test_draw_entry_singleton_group () =
  let prng = Prng.create 6 in
  let e = Csdl.Sample.draw_entry prng ~sentry:true ~rows:[| 42 |] ~p_v:1.0 ~q_v:0.7 in
  Alcotest.(check (option int)) "sentry is the only row" (Some 42) e.Csdl.Sample.sentry_row;
  Alcotest.(check int) "no non-sentry rows" 0 (Array.length e.Csdl.Sample.rows)

let test_draw_entry_empty_group_rejected () =
  let prng = Prng.create 7 in
  Alcotest.check_raises "empty group"
    (Invalid_argument "Sample.draw_entry: empty row group") (fun () ->
      ignore (Csdl.Sample.draw_entry prng ~sentry:true ~rows:[||] ~p_v:1.0 ~q_v:0.5))

let test_draw_entry_binomial_mean () =
  (* With q = 0.4 over 101-row groups, the non-sentry draw count should
     average ~40. *)
  let prng = Prng.create 8 in
  let rows = Array.init 101 Fun.id in
  let total = ref 0 in
  let runs = 2000 in
  for _ = 1 to runs do
    let e = Csdl.Sample.draw_entry prng ~sentry:true ~rows ~p_v:1.0 ~q_v:0.4 in
    total := !total + Array.length e.Csdl.Sample.rows
  done;
  let mean = float_of_int !total /. float_of_int runs in
  Alcotest.(check bool) "mean near 40" true (Float.abs (mean -. 40.0) < 1.5)

(* ------------------------------------------------------------------ *)
(* first_side / second_side                                            *)
(* ------------------------------------------------------------------ *)

let test_first_side_p_one_covers_all_values () =
  let profile = Lazy.force profile_mid in
  let s = draw_synopsis profile in
  Alcotest.(check int) "every value sampled" 10
    (Value.Tbl.length s.Csdl.Synopsis.sample_a.Csdl.Sample.entries)

let test_sample_values_match_rows () =
  let profile = Lazy.force profile_mid in
  let s = draw_synopsis profile in
  let sample = s.Csdl.Synopsis.sample_a in
  let key_index = Table.column_index sample.Csdl.Sample.table "k" in
  Value.Tbl.iter
    (fun v entry ->
      let check_row r =
        let actual = (Table.row sample.Csdl.Sample.table r).(key_index) in
        if not (Value.equal actual v) then
          Alcotest.failf "row %d has value %s, expected %s" r
            (Value.to_string actual) (Value.to_string v)
      in
      Option.iter check_row entry.Csdl.Sample.sentry_row;
      Array.iter check_row entry.Csdl.Sample.rows)
    sample.Csdl.Sample.entries

let test_second_side_subset_of_first () =
  let profile = profile_of counts_mid (List.init 14 (fun i -> (i, 7))) in
  let s = draw_synopsis ~theta:0.4 profile in
  Value.Tbl.iter
    (fun v (_ : Csdl.Sample.entry) ->
      if not (Value.Tbl.mem s.Csdl.Synopsis.sample_a.Csdl.Sample.entries v) then
        Alcotest.failf "S_B value %s not in S_A" (Value.to_string v))
    s.Csdl.Synopsis.sample_b.Csdl.Sample.entries

let test_second_side_only_joinable_values () =
  (* value 99 exists only in A: S_B must have no entry for it even though
     S_A does. *)
  let profile = profile_of [ (1, 5); (99, 5) ] [ (1, 5) ] in
  let s = draw_synopsis ~theta:0.5 profile in
  Alcotest.(check bool) "99 in S_A" true
    (Value.Tbl.mem s.Csdl.Synopsis.sample_a.Csdl.Sample.entries (Value.Int 99));
  Alcotest.(check bool) "99 not in S_B" false
    (Value.Tbl.mem s.Csdl.Synopsis.sample_b.Csdl.Sample.entries (Value.Int 99))

let test_no_sentry_spec_has_no_sentries () =
  let profile = Lazy.force profile_mid in
  let s = draw_synopsis ~spec:Csdl.Spec.cso ~theta:0.5 profile in
  Value.Tbl.iter
    (fun _ entry ->
      Alcotest.(check (option int)) "no sentry" None entry.Csdl.Sample.sentry_row)
    s.Csdl.Synopsis.sample_a.Csdl.Sample.entries

let test_cso_all_or_nothing () =
  (* CSO keeps every tuple of each sampled value (q = u = 1). *)
  let profile = Lazy.force profile_mid in
  let s = draw_synopsis ~spec:Csdl.Spec.cso ~theta:0.5 ~seed:2 profile in
  Value.Tbl.iter
    (fun v entry ->
      let a_v = Csdl.Profile.frequency (Lazy.force profile_mid).Csdl.Profile.a v in
      Alcotest.(check int) "all tuples present" a_v (Array.length entry.Csdl.Sample.rows))
    s.Csdl.Synopsis.sample_a.Csdl.Sample.entries

let test_cs2_second_side_complete () =
  (* CS2: u = 1, so S_B = B |>< S_A exactly. *)
  let profile = profile_of [ (1, 20); (2, 20) ] [ (1, 6); (2, 8) ] in
  let s = draw_synopsis ~spec:Csdl.Spec.cs2 ~theta:0.6 ~seed:3 profile in
  Value.Tbl.iter
    (fun v entry ->
      let b_v = Csdl.Profile.frequency profile.Csdl.Profile.b v in
      Alcotest.(check int) "every joinable tuple kept" b_v
        (Array.length entry.Csdl.Sample.rows))
    s.Csdl.Synopsis.sample_b.Csdl.Sample.entries

let test_n_prime_full_when_p_one () =
  let profile = Lazy.force profile_mid in
  let s = draw_synopsis profile in
  let expected =
    List.fold_left (fun acc (_, m) -> acc +. float_of_int m) 0.0 counts_mid
  in
  Alcotest.(check (float 1e-9)) "N' = |A|" expected s.Csdl.Synopsis.n_prime

let test_n_prime_partial_when_p_small () =
  let profile = Lazy.force profile_mid in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_one in
  let resolved = resolve spec 0.3 profile in
  let s = Csdl.Synopsis.draw (Prng.create 5) ~profile ~resolved in
  (* N' counts only sampled values' frequencies *)
  let expected = ref 0.0 in
  Value.Tbl.iter
    (fun v (_ : Csdl.Sample.entry) ->
      expected :=
        !expected +. float_of_int (Csdl.Profile.frequency profile.Csdl.Profile.a v))
    s.Csdl.Synopsis.sample_a.Csdl.Sample.entries;
  Alcotest.(check (float 1e-9)) "N' matches sampled values" !expected
    s.Csdl.Synopsis.n_prime

let test_synopsis_size_close_to_expectation () =
  (* Average of many draws should match Budget.expected_size within a few
     percent. *)
  let profile = Lazy.force profile_mid in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_one Csdl.Spec.L_theta in
  let resolved = resolve spec 0.3 profile in
  let prng = Prng.create 11 in
  let runs = 300 in
  let total = ref 0 in
  for _ = 1 to runs do
    let s = Csdl.Synopsis.draw prng ~profile ~resolved in
    total := !total + Csdl.Synopsis.size_tuples s
  done;
  let mean = float_of_int !total /. float_of_int runs in
  let expected = resolved.Csdl.Budget.expected_size in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f near expected %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.05 *. expected)

let test_sampling_deterministic_per_seed () =
  let profile = Lazy.force profile_mid in
  let a = draw_synopsis ~seed:9 profile in
  let b = draw_synopsis ~seed:9 profile in
  Alcotest.(check int) "same size" (Csdl.Synopsis.size_tuples a)
    (Csdl.Synopsis.size_tuples b);
  Alcotest.(check (float 1e-12)) "same n_prime" a.Csdl.Synopsis.n_prime
    b.Csdl.Synopsis.n_prime

let test_filtered_count_and_sentry () =
  let profile = profile_of [ (1, 6) ] [ (1, 3) ] in
  let s = draw_synopsis ~theta:0.9 profile in
  let sample = s.Csdl.Synopsis.sample_a in
  let entry = Value.Tbl.find sample.Csdl.Sample.entries (Value.Int 1) in
  let all _ = true and none _ = false in
  Alcotest.(check int) "filter true counts rows"
    (Array.length entry.Csdl.Sample.rows)
    (Csdl.Sample.filtered_count sample all entry);
  Alcotest.(check int) "filter false counts none" 0
    (Csdl.Sample.filtered_count sample none entry);
  Alcotest.(check bool) "sentry passes true" true
    (Csdl.Sample.sentry_passes sample all entry);
  Alcotest.(check bool) "sentry fails false" false
    (Csdl.Sample.sentry_passes sample none entry)

(* ------------------------------------------------------------------ *)
(* Statistical: first-level inclusion ~ Bernoulli(p_v)                 *)
(* ------------------------------------------------------------------ *)

let test_first_level_rate () =
  let profile = Lazy.force profile_mid in
  let spec = Csdl.Spec.csdl Csdl.Spec.L_theta Csdl.Spec.L_one in
  let resolved = resolve spec 0.3 profile in
  let p = Csdl.Budget.p_of resolved profile (Value.Int 0) in
  let prng = Prng.create 13 in
  let runs = 2000 in
  let hits = ref 0 in
  for _ = 1 to runs do
    let s = Csdl.Synopsis.draw prng ~profile ~resolved in
    if Value.Tbl.mem s.Csdl.Synopsis.sample_a.Csdl.Sample.entries (Value.Int 0)
    then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "inclusion rate %.3f near p=%.3f" rate p)
    true
    (Float.abs (rate -. p) < 0.04)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_synopsis_entries_within_groups =
  QCheck.Test.make ~count:50 ~name:"sampled rows always carry the entry's value"
    QCheck.(pair (int_range 1 1000) (int_range 1 8))
    (fun (seed, values) ->
      let counts = List.init values (fun i -> (i, 3 + (i mod 4))) in
      let profile = profile_of counts counts in
      let s =
        draw_synopsis ~seed ~theta:0.4
          ~spec:(Csdl.Spec.csdl Csdl.Spec.L_sqrt_theta Csdl.Spec.L_sqrt_theta)
          profile
      in
      let ok sample =
        let key_index = Table.column_index sample.Csdl.Sample.table "k" in
        Value.Tbl.fold
          (fun v entry acc ->
            acc
            && Array.for_all
                 (fun r ->
                   Value.equal (Table.row sample.Csdl.Sample.table r).(key_index) v)
                 entry.Csdl.Sample.rows)
          sample.Csdl.Sample.entries true
      in
      ok s.Csdl.Synopsis.sample_a && ok s.Csdl.Synopsis.sample_b)

let prop_tuple_count_consistent =
  QCheck.Test.make ~count:50 ~name:"tuple_count equals entry contents"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let profile = Lazy.force profile_mid in
      let s = draw_synopsis ~seed profile in
      let recount sample =
        Value.Tbl.fold
          (fun _ entry acc ->
            acc
            + Array.length entry.Csdl.Sample.rows
            + match entry.Csdl.Sample.sentry_row with Some _ -> 1 | None -> 0)
          sample.Csdl.Sample.entries 0
      in
      recount s.Csdl.Synopsis.sample_a
      = Csdl.Sample.total_tuples s.Csdl.Synopsis.sample_a
      && recount s.Csdl.Synopsis.sample_b
         = Csdl.Sample.total_tuples s.Csdl.Synopsis.sample_b)

let () =
  Alcotest.run "csdl_sampling"
    [
      ( "draw_entry",
        [
          Alcotest.test_case "sentry always present" `Quick
            test_draw_entry_sentry_always_present;
          Alcotest.test_case "sentry excluded from rows" `Quick
            test_draw_entry_sentry_excluded_from_rows;
          Alcotest.test_case "no sentry" `Quick test_draw_entry_no_sentry;
          Alcotest.test_case "singleton group" `Quick test_draw_entry_singleton_group;
          Alcotest.test_case "empty group rejected" `Quick
            test_draw_entry_empty_group_rejected;
          Alcotest.test_case "binomial mean" `Slow test_draw_entry_binomial_mean;
        ] );
      ( "sides",
        [
          Alcotest.test_case "p=1 covers all values" `Quick
            test_first_side_p_one_covers_all_values;
          Alcotest.test_case "values match rows" `Quick test_sample_values_match_rows;
          Alcotest.test_case "S_B subset of S_A" `Quick test_second_side_subset_of_first;
          Alcotest.test_case "S_B only joinable" `Quick
            test_second_side_only_joinable_values;
          Alcotest.test_case "no-sentry specs" `Quick test_no_sentry_spec_has_no_sentries;
          Alcotest.test_case "CSO all-or-nothing" `Quick test_cso_all_or_nothing;
          Alcotest.test_case "CS2 full semijoin" `Quick test_cs2_second_side_complete;
        ] );
      ( "synopsis",
        [
          Alcotest.test_case "N' full at p=1" `Quick test_n_prime_full_when_p_one;
          Alcotest.test_case "N' partial at small p" `Quick test_n_prime_partial_when_p_small;
          Alcotest.test_case "size matches expectation" `Slow
            test_synopsis_size_close_to_expectation;
          Alcotest.test_case "deterministic per seed" `Quick
            test_sampling_deterministic_per_seed;
          Alcotest.test_case "filtered counts" `Quick test_filtered_count_and_sentry;
          Alcotest.test_case "first-level rate" `Slow test_first_level_rate;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_synopsis_entries_within_groups; prop_tuple_count_consistent ] );
    ]
