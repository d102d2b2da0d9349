(* [stamps.(i) = epoch] iff [i] is a member. Epochs only increase and
   fresh entries are 0 while epochs start at 1, so a grown or long-unused
   entry never reads as a member. *)
type t = { mutable stamps : int array; mutable epoch : int }

let create () = { stamps = [||]; epoch = 1 }
let clear t = t.epoch <- t.epoch + 1

let mem t i = i < Array.length t.stamps && Array.unsafe_get t.stamps i = t.epoch

let add t i =
  if i >= Array.length t.stamps then begin
    let a = Array.make (max (i + 1) (2 * Array.length t.stamps)) 0 in
    Array.blit t.stamps 0 a 0 (Array.length t.stamps);
    t.stamps <- a
  end;
  let fresh = Array.unsafe_get t.stamps i <> t.epoch in
  Array.unsafe_set t.stamps i t.epoch;
  fresh
