(** Per-domain reusable buffers.

    A hot path that needs large working arrays (the simplex tableau, the
    discrete-learning grid) takes them from a slot owned by the calling
    domain instead of allocating them per call: arrays above 256 words
    bypass OCaml's minor heap, so allocating them on every query feeds the
    major GC. Each domain gets its own buffer, so domains never share one. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make create] declares a slot; [create] builds a domain's buffer the
    first time that domain asks for one. *)

val with_ : 'a t -> ('a -> 'b) -> 'b
(** [with_ slot f] runs [f] on the calling domain's buffer. The buffer is
    taken with [Atomic.exchange], so a second systhread of the same domain
    asking meanwhile gets a fresh buffer rather than sharing it; the buffer
    goes back into the slot when [f] returns or raises. [f] must not let
    the buffer escape. *)

val release : 'a t -> unit
(** [release slot] empties the calling domain's slot, so that its buffer
    can be collected; the domain's next [with_] builds a fresh one. For a
    domain done with a hot path, such as one that read its start-up files
    and now only waits. Inside a [with_] of the same slot it does nothing:
    [with_] puts its buffer back when [f] returns. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a len fill] is [a] when it holds at least [len] cells, else a new
    array of at least [len] cells (doubling, so repeated growth is
    amortised) holding [a]'s cells followed by [fill]. *)
