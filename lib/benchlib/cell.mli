(** One experiment cell: [runs] repetitions of a draw followed by an
    estimate, each timed on an injectable clock, and the summary every
    table reports for it. Every runner in this library repeats its
    estimators through {!run}, so the protocol (all runs timed, zero
    estimates counted rather than dropped, medians over all runs) is
    written once. *)

type t = {
  label : string;  (** the approach or variant the cell ran *)
  estimates : float array;  (** one per run, in run order *)
  median_estimate : float;  (** the reported point estimate *)
  median_qerror : float;
  rel_variance : float;  (** empirical Var / J^2 (Tables VI and VIII) *)
  mean_tuples : float;
      (** mean synopsis size (tuples) per run: what theta actually bought *)
  mean_wall_seconds : float;
      (** mean wall time of the estimate over ALL runs, including runs
          that estimated 0 *)
  mean_cpu_seconds : float;
      (** mean CPU time of the estimate, beside the wall time *)
  mean_draw_seconds : float;
      (** mean wall time of the draw: the offline half of the paper's
          offline/online split *)
  zero_runs : int;  (** how many runs estimated exactly 0 *)
}

val run :
  ?clock:Repro_util.Clock.t ->
  ?tuples:('s -> int) ->
  label:string ->
  runs:int ->
  truth:float ->
  draw:(int -> 's) ->
  estimate:('s -> float) ->
  unit ->
  t
(** [run ~label ~runs ~truth ~draw ~estimate ()] calls [draw i] and then
    [estimate] on its result for [i = 0 .. runs - 1], in that order, and
    summarises the [runs] estimates against the exact size [truth]. Both
    calls are timed with [clock] (default {!Repro_util.Clock.wall});
    inject a fake clock only on one domain. [tuples] (default 0) sizes
    each drawn synopsis. *)

val record :
  experiment:string ->
  query:string ->
  theta:float ->
  jvd:float ->
  truth:float ->
  t ->
  Provenance.record
(** The cell's provenance record: its label as the variant, its run count,
    medians and means, the mean draw time as [offline_wall_seconds]. *)
