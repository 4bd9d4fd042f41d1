(** The two-stage fan-out behind every experiment grid, on
    {!Repro_util.Pool}. Stage 1 runs once per item: it builds the
    read-only state the item's cells share (a profile, an exact size, a
    generated dataset) and lists those cells in rows. Stage 2 runs every
    cell of every row of every item as one flat pool batch. Cells must be
    pure apart from their own keyed PRNG streams, so the results are
    identical at any [jobs]. *)

val run :
  ?obs:Repro_obs.Obs.ctx ->
  jobs:int ->
  ('a -> ('row * (unit -> 'r) list) list) ->
  'a list ->
  ('row * 'r list) list
(** [run ~jobs rows items] is, for every item in order and every row that
    [rows item] lists, the row and the results of its cells in the order
    they were listed. *)
