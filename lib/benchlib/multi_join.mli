(** The TPC-H multi-join experiments, CSDL-Opt against CS2L at
    theta = 0.001 over the four skewed datasets of {!Table8.datasets}:

    - {!table9}, paper Table IX: the chain [customer |><| orders |><|
      lineitem] (both joins PK-FK) under [c_acctbal > 8000];
    - {!star}, beyond the paper (star joins are relegated to its
      technical report): the fact table lineitem joined to orders and part
      through {!Csdl.Star}, with a selection on each dimension;
    - {!chain4}, beyond the paper: the 4-table chain [nation |><| customer
      |><| orders |><| lineitem] through {!Csdl.Chain_n}, the Table IX
      selection plus a region restriction on nation.

    Stage 1 of the {!Grid} generates each dataset and computes the exact
    size; each estimator is prepared inside its own stage-2 cell. *)

type experiment

val table9 : experiment
val star : experiment
val chain4 : experiment

type row = {
  dataset : string;
  truth : int;
  opt_qerror : float;
  cs2l_qerror : float;
}

val run : Config.t -> experiment -> row list
(** One row per dataset; one provenance record per (dataset, approach),
    under the experiment's name (["table9"], ["star"], ["chain4"]). *)

val print : experiment -> row list -> unit
