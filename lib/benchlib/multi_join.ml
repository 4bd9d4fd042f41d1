module Prng = Repro_util.Prng
module Tpch = Repro_datagen.Tpch
module Chain_n = Csdl.Chain_n
module Star = Csdl.Star
open Repro_relation

let theta = 0.001

(* A synopsis as a cell sees it: its size and its estimate. *)
type drawn = { tuples : int; estimate : unit -> float }

(* One join over one dataset: its exact size, and per approach tag a
   preparation that returns the draw. *)
type join = { truth : int; prepare : string -> Prng.t -> drawn }

type experiment = {
  name : string;  (** stream prefix and provenance experiment *)
  title : string;
  join : Tpch.t -> join;
}

type row = {
  dataset : string;
  truth : int;
  opt_qerror : float;
  cs2l_qerror : float;
}

let chain ~predicates tables =
  {
    truth = Chain_n.true_size ~predicates tables;
    prepare =
      (fun tag ->
        let prepared =
          match tag with
          | "opt" -> Chain_n.prepare_opt ~theta tables
          | _ -> Chain_n.prepare Csdl.Spec.cs2l ~theta tables
        in
        fun prng ->
          let synopsis = Chain_n.draw prepared prng in
          {
            tuples = Chain_n.synopsis_tuples synopsis;
            estimate =
              (fun () -> Chain_n.estimate ~predicates prepared synopsis);
          });
  }

let link table pk fk = { Chain_n.table; pk; fk }

let table9 =
  {
    name = "table9";
    title =
      "Table IX: chain join customer |><| orders |><| lineitem (c_acctbal > \
       8000, theta = 0.001)";
    join =
      (fun data ->
        chain
          ~predicates:
            [
              Predicate.Compare (Predicate.Gt, "c_acctbal", Value.Float 8000.0);
            ]
          {
            Chain_n.links =
              [
                link data.Tpch.customer "c_custkey" None;
                link data.Tpch.orders "o_orderkey" (Some "o_custkey");
              ];
            last = data.Tpch.lineitem;
            last_fk = "l_orderkey";
          });
  }

let chain4 =
  {
    name = "chain4";
    title =
      "4-table chain (beyond the paper): nation |><| customer |><| orders \
       |><| lineitem (region < 3, acctbal > 8000, theta = 0.001)";
    join =
      (fun data ->
        chain
          ~predicates:
            [
              Predicate.Compare (Predicate.Lt, "n_regionkey", Value.Int 3);
              Predicate.Compare (Predicate.Gt, "c_acctbal", Value.Float 8000.0);
              Predicate.True;
              Predicate.True;
            ]
          {
            Chain_n.links =
              [
                link data.Tpch.nation "n_nationkey" None;
                link data.Tpch.customer "c_custkey" (Some "c_nationkey");
                link data.Tpch.orders "o_orderkey" (Some "o_custkey");
              ];
            last = data.Tpch.lineitem;
            last_fk = "l_orderkey";
          });
  }

let star =
  {
    name = "star";
    title =
      "Star join (beyond the paper): lineitem |><| orders |><| part with \
       selections on both dimensions (theta = 0.001)";
    join =
      (fun data ->
        let pred_dims =
          [
            Predicate.Compare
              (Predicate.Gt, "o_totalprice", Value.Float 250_000.0);
            Predicate.Compare
              (Predicate.Lt, "p_retailprice", Value.Float 1_000.0);
          ]
        in
        let dimension table pk fk = { Star.table; pk; fk } in
        let tables =
          {
            Star.fact = data.Tpch.lineitem;
            dimensions =
              [
                dimension data.Tpch.orders "o_orderkey" "l_orderkey";
                dimension data.Tpch.part "p_partkey" "l_partkey";
              ];
          }
        in
        {
          truth = Star.true_size ~pred_dims tables;
          prepare =
            (fun tag ->
              let prepared =
                match tag with
                | "opt" -> Star.prepare_opt ~theta tables
                | _ -> Star.prepare Csdl.Spec.cs2l ~theta tables
              in
              fun prng ->
                let synopsis = Star.draw prepared prng in
                {
                  tuples = Star.synopsis_tuples synopsis;
                  estimate =
                    (fun () -> Star.estimate ~pred_dims prepared synopsis);
                });
        });
  }

let run (config : Config.t) experiment =
  let rows =
    Grid.run ~obs:config.Config.obs ~jobs:config.Config.jobs
      (fun (scale, z) ->
        let data = Tpch.generate ~scale ~z ~seed:config.Config.seed in
        let join = experiment.join data in
        let truth = float_of_int join.truth in
        [
          ( (Tpch.dataset_name data, truth),
            List.map
              (fun tag () ->
                let draw = join.prepare tag in
                let prng =
                  Prng.create_keyed ~seed:config.Config.seed
                    (Printf.sprintf "%s/scale=%g/z=%g/%s" experiment.name scale
                       z tag)
                in
                Cell.run ~tuples:(fun d -> d.tuples) ~label:tag
                  ~runs:config.Config.runs ~truth
                  ~draw:(fun _ -> draw prng)
                  ~estimate:(fun d -> d.estimate ())
                  ())
              [ "opt"; "cs2l" ] );
        ])
      Table8.datasets
  in
  List.map
    (fun ((dataset, truth), cells) ->
      List.iter
        (fun c ->
          Provenance.add config.Config.prov
            (Cell.record ~experiment:experiment.name ~query:dataset ~theta
               ~jvd:Float.nan ~truth c))
        cells;
      match cells with
      | [ opt; cs2l ] ->
          {
            dataset;
            truth = int_of_float truth;
            opt_qerror = opt.Cell.median_qerror;
            cs2l_qerror = cs2l.Cell.median_qerror;
          }
      | _ -> assert false)
    rows

let print experiment rows =
  Render.print_table ~title:experiment.title
    ~header:[ "Dataset"; "J"; "CSDL-Opt"; "CS2L" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.dataset;
             string_of_int r.truth;
             Render.qerror_cell r.opt_qerror;
             Render.qerror_cell r.cs2l_qerror;
           ])
         rows)
    ()
