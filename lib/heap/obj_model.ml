open Repro_util

let null = 0

(* The object store is a dense struct-of-arrays keyed by *slot*:
   growable flat arrays for owner/addr/size/birth-epoch/field-extent.
   Object fields live in one shared pooled [int] buffer addressed by
   (offset, length) — no per-object [int array] — and the coalescing
   barrier's logged bits live in a single inline word per object when it
   has <= 63 fields (the overwhelmingly common case), falling back to a
   pooled extent only for wide objects.

   External ids stay monotonic allocation-sequence numbers (so recorded
   traces replay with identical ids); *slots* are recycled through a
   free-slot stack. The aliasing guard is the [owner] array: a handle or
   id resolves only while [owner.(slot)] still equals its id, so a stale
   handle to a freed object reads as freed forever even after its slot
   has been reused. *)

type store = {
  (* slot-indexed (dense, O(live objects + free slots)) *)
  mutable owner : int array;  (* owning id, or -1 when the slot is free *)
  mutable addrs : int array;
  mutable sizes : int array;
  mutable births : int array;
  mutable foff : int array;  (* field extent offset into [pool] *)
  mutable flen : int array;  (* field count *)
  mutable logged : int array;  (* inline logged word, or offset into [wide] *)
  mutable handles : t array;  (* canonical handle, shared by get/find *)
  mutable slots : int;  (* high-water slot count *)
  free_slots : Vec.t;
  (* shared field pool: one flat buffer + per-length free lists *)
  mutable pool : int array;
  mutable pool_top : int;
  mutable pool_free : Vec.t option array;  (* index = extent length *)
  (* logged-word pool for objects with > 63 fields *)
  mutable wide : int array;
  mutable wide_top : int;
  mutable wide_free : Vec.t option array;
  (* id-indexed: id -> slot, valid only while [owner.(slot)] = id *)
  mutable id_to_slot : int array;
  mutable next_id : int;
  mutable bytes : int;
  mutable count : int;
  (* The shared "no object" sentinel: id 0 (= null, never assigned to a
     real object, so the owner check reads it as freed forever). Filling
     [handles] with it instead of [None] means registration stores the
     canonical handle without boxing an option — the handle record is
     then the only allocation left on the per-object path. *)
  none : t;
}

and t = { id : int; size : int; slot : int; store : store }

let inline_logged_max = 63

(* Store invariant: every handle's [slot] is below the length of all
   slot-indexed arrays ([ensure_slot] grows them before a slot is handed
   out, and they never shrink), and a live object's field extent
   [foff, foff + flen) sits inside [pool] — so the accessors below can
   use unchecked array reads once the owner test has resolved liveness.
   The explicit [check_field] bound on the caller-supplied index is the
   one check that must stay. *)

let is_freed obj = Array.unsafe_get obj.store.owner obj.slot <> obj.id

let addr obj =
  if is_freed obj then -1 else Array.unsafe_get obj.store.addrs obj.slot

let set_addr obj a =
  if not (is_freed obj) then Array.unsafe_set obj.store.addrs obj.slot a

let birth_epoch obj = obj.store.births.(obj.slot)
let set_birth_epoch obj e = if not (is_freed obj) then obj.store.births.(obj.slot) <- e

let nfields obj = Array.unsafe_get obj.store.flen obj.slot

let check_field obj i =
  if i < 0 || i >= Array.unsafe_get obj.store.flen obj.slot then
    invalid_arg "Obj_model: field index out of bounds"

let field obj i =
  let s = obj.store in
  let slot = obj.slot in
  if Array.unsafe_get s.owner slot = obj.id then begin
    check_field obj i;
    Array.unsafe_get s.pool (Array.unsafe_get s.foff slot + i)
  end
  else null

let set_field obj i v =
  let s = obj.store in
  let slot = obj.slot in
  if Array.unsafe_get s.owner slot = obj.id then begin
    check_field obj i;
    Array.unsafe_set s.pool (Array.unsafe_get s.foff slot + i) v
  end

let iter_fields f obj =
  let s = obj.store in
  let slot = obj.slot in
  if Array.unsafe_get s.owner slot = obj.id then begin
    let off = Array.unsafe_get s.foff slot
    and n = Array.unsafe_get s.flen slot in
    for i = 0 to n - 1 do
      f (Array.unsafe_get s.pool (off + i))
    done
  end

let iteri_fields f obj =
  let s = obj.store in
  let slot = obj.slot in
  if Array.unsafe_get s.owner slot = obj.id then begin
    let off = Array.unsafe_get s.foff slot
    and n = Array.unsafe_get s.flen slot in
    for i = 0 to n - 1 do
      f i (Array.unsafe_get s.pool (off + i))
    done
  end

let fields_copy obj =
  let s = obj.store in
  if s.owner.(obj.slot) = obj.id then
    Array.sub s.pool s.foff.(obj.slot) s.flen.(obj.slot)
  else [||]

(* --- logged bits ------------------------------------------------------- *)

let ones n = if n >= inline_logged_max then -1 else (1 lsl n) - 1
let wide_words n = (n + inline_logged_max - 1) / inline_logged_max

let field_logged obj i =
  let s = obj.store in
  let slot = obj.slot in
  check_field obj i;
  let n = s.flen.(slot) in
  if n <= inline_logged_max then (s.logged.(slot) lsr i) land 1 <> 0
  else begin
    let w = s.wide.(s.logged.(slot) + (i / inline_logged_max)) in
    (w lsr (i mod inline_logged_max)) land 1 <> 0
  end

let set_field_logged obj i v =
  let s = obj.store in
  let slot = obj.slot in
  check_field obj i;
  let n = s.flen.(slot) in
  if n <= inline_logged_max then begin
    let bit = 1 lsl i in
    s.logged.(slot) <- (if v then s.logged.(slot) lor bit else s.logged.(slot) land lnot bit)
  end
  else begin
    let idx = s.logged.(slot) + (i / inline_logged_max) in
    let bit = 1 lsl (i mod inline_logged_max) in
    s.wide.(idx) <- (if v then s.wide.(idx) lor bit else s.wide.(idx) land lnot bit)
  end

let set_all_logged obj v =
  let s = obj.store in
  let slot = obj.slot in
  let n = s.flen.(slot) in
  if n <= inline_logged_max then s.logged.(slot) <- (if v then ones n else 0)
  else Array.fill s.wide s.logged.(slot) (wide_words n) (if v then -1 else 0)

module Registry = struct
  type t = store

  (* [slots_hint]/[ids_hint]: expected live-slot and external-id counts,
     used to presize the backing arrays. A replayer knows both exactly
     from the trace, turning doubling-growth churn (which allocates ~2x
     the high-water mark in copies) into one right-sized allocation. *)
  let create ?(slots_hint = 1024) ?(ids_hint = 4096) () =
    let slots_hint = max 16 slots_hint and ids_hint = max 16 ids_hint in
    let rec reg =
      { owner = [||];
        addrs = [||];
        sizes = [||];
        births = [||];
        foff = [||];
        flen = [||];
        logged = [||];
        handles = [||];
        slots = 0;
        free_slots = Vec.create ~capacity:256 ();
        pool = [||];
        pool_top = 0;
        pool_free = Array.make 64 None;
        wide = Array.make 64 0;
        wide_top = 0;
        wide_free = Array.make 8 None;
        id_to_slot = [||];
        next_id = 1;
        bytes = 0;
        count = 0;
        none = none_handle }
    and none_handle = { id = null; size = 0; slot = 0; store = reg } in
    reg.owner <- Array.make slots_hint (-1);
    reg.addrs <- Array.make slots_hint 0;
    reg.sizes <- Array.make slots_hint 0;
    reg.births <- Array.make slots_hint 0;
    reg.foff <- Array.make slots_hint 0;
    reg.flen <- Array.make slots_hint 0;
    reg.logged <- Array.make slots_hint 0;
    reg.handles <- Array.make slots_hint none_handle;
    reg.pool <- Array.make (8 * slots_hint) null;
    reg.id_to_slot <- Array.make ids_hint (-1);
    reg

  let grow_int_array arr needed fill =
    let cap = ref (Array.length arr) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let a = Array.make !cap fill in
    Array.blit arr 0 a 0 (Array.length arr);
    a

  let ensure_slot reg slot =
    if slot >= Array.length reg.owner then begin
      let needed = slot + 1 in
      reg.owner <- grow_int_array reg.owner needed (-1);
      reg.addrs <- grow_int_array reg.addrs needed 0;
      reg.sizes <- grow_int_array reg.sizes needed 0;
      reg.births <- grow_int_array reg.births needed 0;
      reg.foff <- grow_int_array reg.foff needed 0;
      reg.flen <- grow_int_array reg.flen needed 0;
      reg.logged <- grow_int_array reg.logged needed 0;
      let h = Array.make (Array.length reg.owner) reg.none in
      Array.blit reg.handles 0 h 0 (Array.length reg.handles);
      reg.handles <- h
    end

  let ensure_id reg id =
    if id >= Array.length reg.id_to_slot then
      reg.id_to_slot <- grow_int_array reg.id_to_slot (id + 1) (-1)

  (* Shared-pool extents: pop a recycled extent of exactly this length if
     one exists, otherwise bump-allocate. Recycled extents are re-nulled
     so registration semantics match a fresh all-null field array. *)

  let free_list_for lists len =
    if len < Array.length !lists then !lists.(len)
    else None

  let push_free lists len off =
    if len >= Array.length !lists then begin
      let cap = ref (Array.length !lists) in
      while !cap <= len do
        cap := !cap * 2
      done;
      let a = Array.make !cap None in
      Array.blit !lists 0 a 0 (Array.length !lists);
      lists := a
    end;
    (match !lists.(len) with
    | Some v -> Vec.push v off
    | None ->
      let v = Vec.create ~capacity:4 () in
      Vec.push v off;
      !lists.(len) <- Some v)

  let pool_alloc reg len =
    if len = 0 then 0
    else begin
      let lists = ref reg.pool_free in
      let recycled =
        match free_list_for lists len with
        | Some v when not (Vec.is_empty v) -> Some (Vec.pop v)
        | Some _ | None -> None
      in
      reg.pool_free <- !lists;
      match recycled with
      | Some off ->
        Array.fill reg.pool off len null;
        off
      | None ->
        if reg.pool_top + len > Array.length reg.pool then
          reg.pool <- grow_int_array reg.pool (reg.pool_top + len) null;
        let off = reg.pool_top in
        reg.pool_top <- off + len;
        off
    end

  let pool_release reg off len =
    if len > 0 then begin
      let lists = ref reg.pool_free in
      push_free lists len off;
      reg.pool_free <- !lists
    end

  let wide_alloc reg words =
    let lists = ref reg.wide_free in
    let recycled =
      match free_list_for lists words with
      | Some v when not (Vec.is_empty v) -> Some (Vec.pop v)
      | Some _ | None -> None
    in
    reg.wide_free <- !lists;
    match recycled with
    | Some off ->
      Array.fill reg.wide off words (-1);
      off
    | None ->
      if reg.wide_top + words > Array.length reg.wide then
        reg.wide <- grow_int_array reg.wide (reg.wide_top + words) 0;
      let off = reg.wide_top in
      reg.wide_top <- off + words;
      Array.fill reg.wide off words (-1);
      off

  let wide_release reg off words =
    let lists = ref reg.wide_free in
    push_free lists words off;
    reg.wide_free <- !lists

  let register reg ~size ~nfields ~addr ~birth_epoch =
    let id = reg.next_id in
    reg.next_id <- id + 1;
    let slot =
      if Vec.is_empty reg.free_slots then begin
        let s = reg.slots in
        reg.slots <- s + 1;
        ensure_slot reg s;
        s
      end
      else Vec.pop reg.free_slots
    in
    reg.owner.(slot) <- id;
    reg.addrs.(slot) <- addr;
    reg.sizes.(slot) <- size;
    reg.births.(slot) <- birth_epoch;
    reg.foff.(slot) <- pool_alloc reg nfields;
    reg.flen.(slot) <- nfields;
    (* New objects are born all-logged: the barrier ignores mutations to
       them, implementing the implicitly-dead optimization. *)
    reg.logged.(slot) <-
      (if nfields <= inline_logged_max then ones nfields
       else wide_alloc reg (wide_words nfields));
    ensure_id reg id;
    reg.id_to_slot.(id) <- slot;
    let obj = { id; size; slot; store = reg } in
    reg.handles.(slot) <- obj;
    reg.bytes <- reg.bytes + size;
    reg.count <- reg.count + 1;
    obj

  let none_handle reg = reg.none

  (* Sentinel-returning lookup: the zero-allocation form of [find]. The
     result is live unless it is the store's [none] sentinel (id 0) —
     callers test [is_none] / compare ids, never destructure an option. *)
  let find_live reg id =
    if id <= 0 || id >= Array.length reg.id_to_slot then reg.none
    else begin
      (* A non-negative [id_to_slot] entry is always a valid slot index
         (set at registration after [ensure_slot]), so the owner/handle
         reads are unchecked. *)
      let slot = Array.unsafe_get reg.id_to_slot id in
      if slot >= 0 && Array.unsafe_get reg.owner slot = id then
        Array.unsafe_get reg.handles slot
      else reg.none
    end

  let find reg id =
    let obj = find_live reg id in
    if obj.id = null then None else Some obj

  let mem reg id =
    id > 0
    && id < Array.length reg.id_to_slot
    &&
    let slot = reg.id_to_slot.(id) in
    slot >= 0 && reg.owner.(slot) = id

  let get reg id =
    let obj = find_live reg id in
    if obj.id = null then raise Not_found else obj

  let free reg obj =
    if not (is_freed obj) then begin
      let slot = obj.slot in
      let n = reg.flen.(slot) in
      pool_release reg reg.foff.(slot) n;
      if n > inline_logged_max then wide_release reg reg.logged.(slot) (wide_words n);
      reg.owner.(slot) <- -1;
      reg.handles.(slot) <- reg.none;
      Vec.push reg.free_slots slot;
      reg.bytes <- reg.bytes - obj.size;
      reg.count <- reg.count - 1
    end

  let count reg = reg.count
  let live_bytes reg = reg.bytes
  let slot_count reg = reg.slots

  let handle_at reg slot =
    if slot < 0 || slot >= reg.slots then None
    else if reg.owner.(slot) >= 0 then Some reg.handles.(slot)
    else None

  (* Sentinel-returning form of [handle_at] for slot-partitioned scan
     packets (no [Some] per live slot). *)
  let handle_at_live reg slot =
    if slot < 0 || slot >= reg.slots then reg.none
    else if Array.unsafe_get reg.owner slot >= 0 then
      Array.unsafe_get reg.handles slot
    else reg.none

  let iter f reg =
    for slot = 0 to reg.slots - 1 do
      if reg.owner.(slot) >= 0 then f reg.handles.(slot)
    done

  let reachable_from reg roots =
    let seen = Mark_bitset.create ~capacity:reg.next_id () in
    let stack = Vec.create ~capacity:256 () in
    let visit id =
      if id <> null && (not (Mark_bitset.marked seen id)) && mem reg id then begin
        Mark_bitset.mark seen id;
        Vec.push stack id
      end
    in
    List.iter visit roots;
    while not (Vec.is_empty stack) do
      iter_fields visit (find_live reg (Vec.pop stack))
    done;
    seen
end
