type 'a t = { create : unit -> 'a; slot : 'a option Atomic.t Domain.DLS.key }

let make create =
  { create; slot = Domain.DLS.new_key (fun () -> Atomic.make None) }

let with_ t f =
  let slot = Domain.DLS.get t.slot in
  let buffer =
    match Atomic.exchange slot None with Some b -> b | None -> t.create ()
  in
  Fun.protect ~finally:(fun () -> Atomic.set slot (Some buffer)) (fun () ->
      f buffer)

let release t = Atomic.set (Domain.DLS.get t.slot) None

let grow a len fill =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end
