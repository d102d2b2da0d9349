open Repro_heap
module Vec = Repro_util.Vec
module Stamp_set = Repro_util.Stamp_set

let null = Obj_model.null

(* Marks are slot-indexed: slots are dense (bounded by peak live
   objects), ids are not. A pass costs O(reached objects + their
   fields); emptying the previous pass's marks is O(1). *)
type t = { marks : Stamp_set.t; ids : Vec.t; mutable dangling : int }

let create () =
  { marks = Stamp_set.create (); ids = Vec.create ~capacity:256 (); dangling = 0 }

let compute t reg roots =
  Stamp_set.clear t.marks;
  Vec.clear t.ids;
  t.dangling <- 0;
  (* [visit] and the dangling test share one lookup per field. *)
  let visit id =
    if id <> null then begin
      let o = Obj_model.Registry.find_live reg id in
      if o.id = null then t.dangling <- t.dangling + 1
      else if Stamp_set.add t.marks o.slot then Vec.push t.ids id
    end
  in
  Array.iter (fun id -> if Obj_model.Registry.mem reg id then visit id) roots;
  (* Breadth-first over the visit list itself: no separate queue. *)
  let i = ref 0 in
  while !i < Vec.length t.ids do
    Obj_model.iter_fields visit
      (Obj_model.Registry.find_live reg (Vec.get t.ids !i));
    incr i
  done

let iter f t = Vec.iter f t.ids
let dangling t = t.dangling

let sorted_ids t =
  let a = Vec.to_array t.ids in
  Array.sort Int.compare a;
  a
