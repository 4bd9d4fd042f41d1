(** Batched online estimation: load a synopsis once, answer a whole file
    of predicate queries from it in one process — the deployment shape the
    paper's offline/online split argues for. Per query, only the online
    phase (the estimate call against the already-loaded synopsis) is
    timed; the one-off load cost is reported amortised across the batch in
    each provenance record's [offline_wall_seconds]. *)

open Repro_relation

type query = {
  q_id : string;  (** ["q%04d"], numbering surviving lines from 0 *)
  q_line : int;  (** 1-based line of the query in its file *)
  q_left : Predicate.t;
  q_right : Predicate.t;
}

val query_id : int -> string

val parse_queries : string -> (query list, string) result
(** Parse a queries file: one query per line as
    ["<left predicate> ;; <right predicate>"]; an empty side means no
    selection on that table, blank lines and [#] comments are skipped.
    Errors carry the 1-based line number. *)

type result_row = {
  b_id : string;
  b_estimate : float;
  b_wall_seconds : float;  (** online-only: the estimate call *)
  b_cpu_seconds : float;
}

val run :
  ?obs:Repro_obs.Obs.ctx ->
  ?prov:Provenance.collector ->
  ?clock:Repro_util.Clock.t ->
  store:Csdl.Store.t ->
  key:string ->
  load_wall_seconds:float ->
  query list ->
  result_row list
(** Answer each query against the synopsis stored under [key], in order.
    Records one provenance entry per query (experiment ["batch"]); truth
    and q-error are [nan] — a batch run has no ground truth. A non-empty
    batch also records one aggregate entry (experiment
    {!Provenance.online_experiment}, query ["total"]) whose
    [wall_seconds] is the summed online wall and whose
    [offline_wall_seconds] is the un-amortised [load_wall_seconds] — the
    record the regression gate's online-wall bound reads. Raises
    [Not_found] for an unknown key, like {!Csdl.Store.estimate}, and
    [Failure "line N (ID): REASON"] for the first query
    {!Csdl.Store.estimate} refuses (e.g. a predicate on a column the
    table lacks: ["bad input: Predicate: no column named ..."]). *)

val total_online_wall : result_row list -> float
