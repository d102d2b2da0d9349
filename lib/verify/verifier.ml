open Repro_heap
open Repro_engine
module Vec = Repro_util.Vec
module Stamp_set = Repro_util.Stamp_set

type violation = {
  module_ : string;
  invariant : string;
  subject : string;
  expected : string;
  found : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "%s/%s: %s: expected %s, found %s" v.module_ v.invariant
    v.subject v.expected v.found

let violation_to_string v = Format.asprintf "%a" pp_violation v

type safepoint = Pre_pause | Post_pause | End_of_run

let safepoint_name = function
  | Pre_pause -> "pre"
  | Post_pause -> "post"
  | End_of_run -> "end"

let points_of_string s =
  let toks =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "pre" :: rest -> go (Pre_pause :: acc) rest
    | "post" :: rest -> go (Post_pause :: acc) rest
    | "end" :: rest -> go (End_of_run :: acc) rest
    | "all" :: rest -> go (End_of_run :: Post_pause :: Pre_pause :: acc) rest
    | tok :: _ ->
      Error
        (Printf.sprintf "unknown safepoint %S (expected pre, post, end or all)"
           tok)
  in
  if toks = [] then Error "empty safepoint list" else go [] toks

let state_name = function
  | Blocks.Free -> "Free"
  | Blocks.Recyclable -> "Recyclable"
  | Blocks.Owned -> "Owned"
  | Blocks.In_use -> "In_use"
  | Blocks.Los_backing -> "Los_backing"

let describe (o : Obj_model.t) =
  Printf.sprintf "object %d (addr %d, size %d)" o.id (Obj_model.addr o) o.size

(* --- Per-check scratch.

   Every cross-check below reads slot-, block- or granule-keyed int
   arrays and sets instead of per-check hash tables and lists. They live
   in a [scratch] the caller keeps across checks (a verifier session, a
   differ lane) and only ever grow. --- *)

type scratch = {
  resident : Stamp_set.t;  (* slots listed by their home block *)
  los_owned : Stamp_set.t;  (* blocks backing a live large object *)
  listed_free : Stamp_set.t;  (* blocks on the free list *)
  listed_recyclable : Stamp_set.t;  (* blocks on the recyclable list *)
  counted : Stamp_set.t;  (* slots whose [evidence] is this check's *)
  mutable evidence : int array;  (* slot: incoming references *)
  (* Radix-sorted (key, value) pairs — object extents keyed by start
     granule, then RC expectations keyed by granule — plus the extents'
     start/end/owner by build index. All seven share one length. *)
  mutable keys : int array;
  mutable vals : int array;
  mutable keys_tmp : int array;
  mutable vals_tmp : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable owners : int array;
  digits : int array;
  reach : Reach.t;
}

let radix_bits = 11
let radix = 1 lsl radix_bits

let create_scratch () =
  { resident = Stamp_set.create ();
    los_owned = Stamp_set.create ();
    listed_free = Stamp_set.create ();
    listed_recyclable = Stamp_set.create ();
    counted = Stamp_set.create ();
    evidence = [||];
    keys = [||];
    vals = [||];
    keys_tmp = [||];
    vals_tmp = [||];
    starts = [||];
    ends = [||];
    owners = [||];
    digits = Array.make (radix + 1) 0;
    reach = Reach.create () }

let grow a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let fit_pairs s n =
  if n > Array.length s.keys then begin
    s.keys <- grow s.keys n;
    s.vals <- grow s.vals n;
    s.keys_tmp <- grow s.keys_tmp n;
    s.vals_tmp <- grow s.vals_tmp n;
    s.starts <- grow s.starts n;
    s.ends <- grow s.ends n;
    s.owners <- grow s.owners n
  end

(* Stable LSD radix sort of the first [n] (keys, vals) pairs by key;
   keys are non-negative and at most [max_key]. *)
let radix_sort s n ~max_key =
  let shift = ref 0 in
  while max_key lsr !shift > 0 do
    let d = s.digits and keys = s.keys and vals = s.vals in
    let kt = s.keys_tmp and vt = s.vals_tmp in
    let sh = !shift in
    Array.fill d 0 (radix + 1) 0;
    for i = 0 to n - 1 do
      let x = ((keys.(i) lsr sh) land (radix - 1)) + 1 in
      d.(x) <- d.(x) + 1
    done;
    for x = 1 to radix do
      d.(x) <- d.(x) + d.(x - 1)
    done;
    for i = 0 to n - 1 do
      let x = (keys.(i) lsr sh) land (radix - 1) in
      let j = d.(x) in
      d.(x) <- j + 1;
      kt.(j) <- keys.(i);
      vt.(j) <- vals.(i)
    done;
    s.keys <- kt;
    s.vals <- vt;
    s.keys_tmp <- keys;
    s.vals_tmp <- vals;
    shift := sh + radix_bits
  done

let check_heap ?scratch ?reach ?(roots = [||])
    ?(introspect = Collector.no_introspection) (heap : Heap.t) =
  let s = match scratch with Some s -> s | None -> create_scratch () in
  List.iter Stamp_set.clear
    [ s.resident; s.los_owned; s.listed_free; s.listed_recyclable; s.counted ];
  let cfg = heap.Heap.cfg in
  let reg = heap.registry in
  let stuck = Heap_config.stuck_count cfg in
  let out = ref [] in
  let v ~module_ ~invariant ~subject ~expected ~found =
    out := { module_; invariant; subject; expected; found } :: !out
  in
  let slots = Obj_model.Registry.slot_count reg in
  let nblocks = Heap_config.blocks cfg in
  (* Live objects in descending slot order, the order every per-object
     section reports in. Subjects are rendered only for a violation. *)
  let iter_live f =
    for slot = slots - 1 downto 0 do
      let o = Obj_model.Registry.handle_at_live reg slot in
      if o.id <> Obj_model.null then f o
    done
  in
  (* The (key, value) pairs of the two sorted sections: [push] appends,
     [sort_pairs ()] sorts them by key and returns how many there are. *)
  let npairs = ref 0 and max_key = ref 0 in
  let push key value =
    let i = !npairs in
    fit_pairs s (i + 1);
    s.keys.(i) <- key;
    s.vals.(i) <- value;
    if key > !max_key then max_key := key;
    npairs := i + 1
  in
  let sort_pairs () =
    radix_sort s !npairs ~max_key:!max_key;
    !npairs
  in
  let is_los (o : Obj_model.t) = Heap.is_los heap o in
  let geometry_ok (o : Obj_model.t) =
    let a = Obj_model.addr o in
    Addr.valid cfg a && Addr.is_granule_aligned cfg a
  in

  (* --- Registry geometry, block residency, LOS backing. An object is
     resident-listed when its home block (the block holding its address,
     or a large object's first backing block) lists its id: one pass over
     every resident list answers that for all objects. --- *)
  for b = 0 to nblocks - 1 do
    let ids = Blocks.residents heap.blocks b in
    for i = 0 to Vec.length ids - 1 do
      let o = Obj_model.Registry.find_live reg (Vec.get ids i) in
      if o.id <> Obj_model.null then begin
        let home =
          if is_los o then
            match Heap.los_extent heap o with first :: _ -> first | [] -> -1
          else Addr.block_of cfg (Obj_model.addr o)
        in
        if home = b then ignore (Stamp_set.add s.resident o.slot)
      end
    done
  done;
  iter_live (fun (o : Obj_model.t) ->
      let oaddr = Obj_model.addr o in
      if not (Addr.valid cfg oaddr) then
        v ~module_:"registry" ~invariant:"addr-in-heap" ~subject:(describe o)
          ~expected:(Printf.sprintf "0 <= addr < %d" cfg.heap_bytes)
          ~found:(string_of_int oaddr)
      else if not (Addr.is_granule_aligned cfg oaddr) then
        v ~module_:"registry" ~invariant:"addr-granule-aligned"
          ~subject:(describe o)
          ~expected:(Printf.sprintf "multiple of %d" cfg.granule_bytes)
          ~found:(string_of_int oaddr)
      else if is_los o then begin
        match Heap.los_extent heap o with
        | [] ->
          v ~module_:"los" ~invariant:"has-backing" ~subject:(describe o)
            ~expected:"at least one backing block" ~found:"none"
        | first :: _ as backing ->
          if oaddr <> Addr.block_start cfg first then
            v ~module_:"los" ~invariant:"addr-is-first-backing"
              ~subject:(describe o)
              ~expected:(string_of_int (Addr.block_start cfg first))
              ~found:(string_of_int oaddr);
          List.iter
            (fun b ->
              if Blocks.state heap.blocks b <> Blocks.Los_backing then
                v ~module_:"los" ~invariant:"backing-state"
                  ~subject:
                    (Printf.sprintf "%s backing block %d" (describe o) b)
                  ~expected:"Los_backing"
                  ~found:(state_name (Blocks.state heap.blocks b)))
            backing;
          if not (Stamp_set.mem s.resident o.slot) then
            v ~module_:"blocks" ~invariant:"los-resident-listed"
              ~subject:(describe o)
              ~expected:
                (Printf.sprintf "id %d in block %d resident list" o.id first)
              ~found:"absent"
      end
      else begin
        let b = Addr.block_of cfg oaddr in
        let b_end = Addr.block_of cfg (oaddr + o.size - 1) in
        if b <> b_end then
          v ~module_:"registry" ~invariant:"within-one-block"
            ~subject:(describe o) ~expected:"object contained in a single block"
            ~found:(Printf.sprintf "spans blocks %d..%d" b b_end);
        (match Blocks.state heap.blocks b with
        | Blocks.Owned | Blocks.In_use | Blocks.Recyclable -> ()
        | st ->
          v ~module_:"blocks" ~invariant:"resident-block-state"
            ~subject:(describe o) ~expected:"Owned, In_use or Recyclable"
            ~found:(state_name st));
        if not (Stamp_set.mem s.resident o.slot) then
          v ~module_:"blocks" ~invariant:"resident-listed" ~subject:(describe o)
            ~expected:(Printf.sprintf "id %d in block %d resident list" o.id b)
            ~found:"absent"
      end);

  (* Every Los_backing block must belong to a live large object. *)
  iter_live (fun o ->
      if is_los o then
        List.iter
          (fun b -> ignore (Stamp_set.add s.los_owned b))
          (Heap.los_extent heap o));
  Blocks.iter_state heap.blocks Blocks.Los_backing (fun b ->
      if not (Stamp_set.mem s.los_owned b) then
        v ~module_:"los" ~invariant:"backing-owned"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"backing a live large object"
          ~found:"Los_backing block with no owner");

  (* --- No two live objects overlap: neighbours in start order must be
     disjoint. Extents are radix-sorted by start granule. Equal starts
     make the order ambiguous, so then (and only then) the extents are
     ordered as the reports have always ordered them: the reversed
     build list under [Array.sort]. --- *)
  let extent start stop id =
    let i = !npairs in
    push (Addr.granule_of cfg start) i;
    s.starts.(i) <- start;
    s.ends.(i) <- stop;
    s.owners.(i) <- id
  in
  iter_live (fun (o : Obj_model.t) ->
      if geometry_ok o then
        if is_los o then
          List.iter
            (fun b ->
              let st = Addr.block_start cfg b in
              extent st (st + cfg.block_bytes) o.id)
            (Heap.los_extent heap o)
        else begin
          let a = Obj_model.addr o in
          extent a (a + o.size) o.id
        end);
  let n = sort_pairs () in
  let overlap s1 e1 id1 s2 id2 =
    if s2 < e1 then
      v ~module_:"registry" ~invariant:"no-overlap"
        ~subject:(Printf.sprintf "objects %d and %d" id1 id2)
        ~expected:"disjoint extents"
        ~found:(Printf.sprintf "[%d,%d) overlaps [%d,...)" s1 e1 s2)
  in
  let tie = ref false in
  for i = 0 to n - 2 do
    if s.keys.(i) = s.keys.(i + 1) then tie := true
  done;
  if !tie then begin
    let arr =
      Array.init n (fun i ->
          let j = n - 1 - i in
          (s.starts.(j), s.ends.(j), s.owners.(j)))
    in
    Array.sort (fun (a, _, _) (b, _, _) -> compare a b) arr;
    for i = 0 to n - 2 do
      let s1, e1, id1 = arr.(i) in
      let s2, _, id2 = arr.(i + 1) in
      overlap s1 e1 id1 s2 id2
    done
  end
  else
    for i = 0 to n - 2 do
      let a = s.vals.(i) and b = s.vals.(i + 1) in
      overlap s.starts.(a) s.ends.(a) s.owners.(a) s.starts.(b) s.owners.(b)
    done;

  (* --- Block states vs the RC table and the free/recyclable lists.
     The lists themselves are stale-tolerant (entries are revalidated on
     acquisition), so only the forward direction is an invariant: a block
     the state table calls Free/Recyclable must be findable by the
     allocator. --- *)
  Free_lists.iter_free heap.free (fun b ->
      ignore (Stamp_set.add s.listed_free b));
  Free_lists.iter_recyclable heap.free (fun b ->
      ignore (Stamp_set.add s.listed_recyclable b));
  for b = 0 to nblocks - 1 do
    match Blocks.state heap.blocks b with
    | Blocks.Free ->
      if not (Rc_table.block_is_free heap.rc cfg b) then
        v ~module_:"blocks" ~invariant:"free-block-rc-zero"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"all RC entries zero"
          ~found:
            (Printf.sprintf "%d live granules"
               (Rc_table.live_granules_in_block heap.rc cfg b));
      if not (Stamp_set.mem s.listed_free b) then
        v ~module_:"free_lists" ~invariant:"free-block-listed"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"present on the free list" ~found:"absent"
    | Blocks.Recyclable ->
      (* Allocators drop recyclable blocks that are evacuation targets
         from the list (they must not be allocated into); the sweep
         re-lists them once the target flag clears. *)
      if
        (not (Stamp_set.mem s.listed_recyclable b))
        && not (Blocks.target heap.blocks b)
      then
        v ~module_:"free_lists" ~invariant:"recyclable-block-listed"
          ~subject:(Printf.sprintf "block %d" b)
          ~expected:"present on the recyclable list" ~found:"absent"
    | Blocks.Owned | Blocks.In_use | Blocks.Los_backing -> ()
  done;

  (* --- To-space reserve: a block still held in reserve (state In_use)
     must be completely empty. Entries whose state changed are blocks a
     sweep dissolved back into circulation; ensure_reserve drops them, so
     they are stale rather than corrupt. --- *)
  Vec.iter
    (fun b ->
      if Blocks.state heap.blocks b = Blocks.In_use then begin
        if not (Rc_table.block_is_free heap.rc cfg b) then
          v ~module_:"reserve" ~invariant:"reserve-block-empty"
            ~subject:(Printf.sprintf "reserve block %d" b)
            ~expected:"all RC entries zero"
            ~found:
              (Printf.sprintf "%d live granules"
                 (Rc_table.live_granules_in_block heap.rc cfg b));
        let resident_live id =
          let o = Obj_model.Registry.find_live reg id in
          o.id <> Obj_model.null
          && (not (is_los o))
          && Addr.block_of cfg (Obj_model.addr o) = b
        in
        if Vec.exists resident_live (Blocks.residents heap.blocks b) then
          v ~module_:"reserve" ~invariant:"reserve-no-residents"
            ~subject:(Printf.sprintf "reserve block %d" b)
            ~expected:"no live resident objects" ~found:"live resident"
      end)
    heap.reserve;

  (* --- RC table vs the registry: every non-zero entry must be an object
     header or a straddle-line marker; straddle markers hold the stuck
     value. Markers of dead objects awaiting sweep are legal, so the
     expectation is keyed on registration, not on the header count.
     Expectations are (granule, claim) pairs — claim -1 for a header,
     the owner's slot for a straddle line — radix-sorted by granule and
     merged with the table's ascending non-zero scan. A header claim
     wins; among straddle claims the first in report order does. --- *)
  npairs := 0;
  max_key := 0;
  iter_live (fun (o : Obj_model.t) ->
      if geometry_ok o then begin
        let oaddr = Obj_model.addr o in
        push (Addr.granule_of cfg oaddr) (-1);
        if (not (is_los o)) && o.size > cfg.line_bytes then begin
          let first, last = Addr.lines_covered cfg ~addr:oaddr ~size:o.size in
          for l = first + 1 to last - 1 do
            push (Addr.granule_of cfg (Addr.line_start cfg l)) o.slot
          done
        end
      end);
  let n = sort_pairs () in
  let next = ref 0 in
  Rc_table.iter_nonzero heap.rc cfg (fun ~granule ~count ->
      let keys = s.keys in
      while !next < n && keys.(!next) < granule do
        incr next
      done;
      let header = ref false and straddle = ref (-1) and k = ref !next in
      while !k < n && keys.(!k) = granule do
        let c = s.vals.(!k) in
        if c < 0 then header := true else if !straddle < 0 then straddle := c;
        incr k
      done;
      if !header then ()
      else if !straddle >= 0 then begin
        if count <> stuck then
          v ~module_:"rc" ~invariant:"straddle-marker-value"
            ~subject:
              (Printf.sprintf "granule %d (straddle line of %s)" granule
                 (describe (Obj_model.Registry.handle_at_live reg !straddle)))
            ~expected:(string_of_int stuck) ~found:(string_of_int count)
      end
      else
        v ~module_:"rc" ~invariant:"orphan-count"
          ~subject:
            (Printf.sprintf "granule %d (addr %d)" granule
               (Addr.granule_start cfg granule))
          ~expected:"0 (no object header or straddle line here)"
          ~found:(string_of_int count));

  (* Straddle markers present wherever a counted object demands them. *)
  iter_live (fun (o : Obj_model.t) ->
      if
        geometry_ok o
        && (not (is_los o))
        && o.size > cfg.line_bytes
        && Rc_table.get heap.rc cfg (Obj_model.addr o) > 0
      then begin
        let first, last =
          Addr.lines_covered cfg ~addr:(Obj_model.addr o) ~size:o.size
        in
        for l = first + 1 to last - 1 do
          if Rc_table.get heap.rc cfg (Addr.line_start cfg l) = 0 then
            v ~module_:"rc" ~invariant:"straddle-marker-missing"
              ~subject:(Printf.sprintf "%s, line %d" (describe o) l)
              ~expected:(Printf.sprintf "marker %d at line start" stuck)
              ~found:"0"
        done
      end);

  (* --- Count discipline. --- *)
  (match introspect.Collector.rc_discipline with
  | Collector.Pinned_rc ->
    (* Tracing collectors pin every object at allocation; any other
       header value means the shared line-liveness metadata is lying to
       the allocator. *)
    iter_live (fun (o : Obj_model.t) ->
        if geometry_ok o then begin
          let c = Rc_table.get heap.rc cfg (Obj_model.addr o) in
          if c <> stuck then
            v ~module_:"rc" ~invariant:"pinned-header" ~subject:(describe o)
              ~expected:(string_of_int stuck) ~found:(string_of_int c)
        end)
  | Collector.Exact_rc ->
    if introspect.Collector.counts_exact () then begin
      (* Deferred RC soundness: a header count can never exceed the
         evidence for it — in-heap references, roots, and references
         queued in the collector's buffers (incs not yet applied, decs
         pending). One-sided: undercounts are legal (young objects sit
         at zero until their first pause). References to dead ids can
         match no live object, so evidence is kept per live slot. *)
      (* An entry is read only once [counted] this check, so growing
         need not copy. *)
      if Array.length s.evidence < slots then s.evidence <- Array.make slots 0;
      let bump id =
        let o = Obj_model.Registry.find_live reg id in
        if o.id <> Obj_model.null then
          if Stamp_set.add s.counted o.slot then s.evidence.(o.slot) <- 1
          else s.evidence.(o.slot) <- s.evidence.(o.slot) + 1
      in
      iter_live (Obj_model.iter_fields bump);
      Array.iter bump roots;
      List.iter bump (introspect.Collector.pending_ref_ids ());
      iter_live (fun (o : Obj_model.t) ->
          if geometry_ok o then begin
            let c = Rc_table.get heap.rc cfg (Obj_model.addr o) in
            if c > 0 && c < stuck then begin
              let e =
                if Stamp_set.mem s.counted o.slot then s.evidence.(o.slot)
                else 0
              in
              if c > e then
                v ~module_:"rc" ~invariant:"overcount" ~subject:(describe o)
                  ~expected:
                    (Printf.sprintf "count <= %d incoming references" e)
                  ~found:(string_of_int c)
            end
          end)
    end);

  (* --- Mark bitset must be empty between traces. --- *)
  if introspect.Collector.expect_clear_marks () then begin
    let marked = ref 0 in
    let first = ref (-1) in
    Mark_bitset.iter_marked heap.marks (fun id ->
        incr marked;
        if !first < 0 then first := id);
    if !marked > 0 then
      v ~module_:"marks" ~invariant:"clear-between-traces"
        ~subject:"shared mark bitset" ~expected:"no marked ids"
        ~found:(Printf.sprintf "%d marked (first id %d)" !marked !first)
  end;

  (* --- Per-line reuse counters never go negative. --- *)
  let bad_reuse = ref 0 in
  for l = 0 to Heap_config.total_lines cfg - 1 do
    if Reuse_table.get heap.reuse l < 0 then incr bad_reuse
  done;
  if !bad_reuse > 0 then
    v ~module_:"reuse" ~invariant:"counter-non-negative"
      ~subject:"line reuse counters" ~expected:"all >= 0"
      ~found:(Printf.sprintf "%d negative" !bad_reuse);

  (* --- Remembered sets: an entry for a live source must name one of its
     fields. Entries whose source has died are staleness the consumer
     filters, not corruption. --- *)
  List.iter
    (fun (src, field) ->
      let o = Obj_model.Registry.find_live reg src in
      if o.id <> Obj_model.null then
        if field < 0 || field >= Obj_model.nfields o then
          v ~module_:"remset" ~invariant:"field-in-range"
            ~subject:(Printf.sprintf "entry (%d, %d)" src field)
            ~expected:
              (Printf.sprintf "0 <= field < %d (nfields of object %d)"
                 (Obj_model.nfields o) src)
            ~found:(string_of_int field))
    (introspect.Collector.remset_entries ());

  (* --- Reachability oracle: nothing reachable from the roots may have
     been freed. The pass runs over the registry alone, independent of
     any collector metadata; the caller may hand in one it already made
     for these roots. Dangling references are counted during the pass
     and listed, in ascending id order, only when there are some. --- *)
  for i = Array.length roots - 1 downto 0 do
    let id = roots.(i) in
    if id <> Obj_model.null && not (Obj_model.Registry.mem reg id) then
      v ~module_:"reachability" ~invariant:"root-live"
        ~subject:(Printf.sprintf "root slot -> id %d" id)
        ~expected:"a registered object" ~found:"freed or unknown id"
  done;
  let reach =
    match reach with
    | Some r -> r
    | None ->
      Reach.compute s.reach reg roots;
      s.reach
  in
  if Reach.dangling reach > 0 then
    Array.iter
      (fun id ->
        Obj_model.iteri_fields
          (fun i r ->
            if r <> Obj_model.null && not (Obj_model.Registry.mem reg r) then
              v ~module_:"reachability" ~invariant:"no-dangling-ref"
                ~subject:(Printf.sprintf "object %d field %d -> id %d" id i r)
                ~expected:"reachable referent registered"
                ~found:"freed or unknown id")
          (Obj_model.Registry.find_live reg id))
      (Reach.sorted_ids reach);

  List.rev !out

(* --- Safepoint sessions. --- *)

type t = {
  api : Api.t;
  points : safepoint list;
  max_violations : int;
  mutable retained : (safepoint * string * violation) list;  (* reversed *)
  mutable total : int;
  mutable checks : int;
  scratch : scratch;
}

let run_check t point label =
  t.checks <- t.checks + 1;
  let api = t.api in
  let vs =
    check_heap ~scratch:t.scratch ~roots:(Api.roots api)
      ~introspect:(Api.collector api).Collector.introspect (Api.heap api)
  in
  List.iter
    (fun viol ->
      t.total <- t.total + 1;
      if t.total <= t.max_violations then
        t.retained <- (point, label, viol) :: t.retained)
    vs

let attach ?(max_violations = 50) ~points api =
  let t =
    { api; points; max_violations; retained = []; total = 0; checks = 0;
      scratch = create_scratch () }
  in
  if List.mem Pre_pause points then
    (Api.heap api).Heap.on_pre_pause <- (fun () -> run_check t Pre_pause "pause");
  if List.mem Post_pause points then
    Sim.set_on_pause_end (Api.sim api) (fun label ->
        run_check t Post_pause label);
  t

let check_now t point ~label = run_check t point label
let finish t = if List.mem End_of_run t.points then run_check t End_of_run "finish"
let violations t = List.rev t.retained
let total_violations t = t.total
let checks_run t = t.checks
let ok t = t.total = 0

let report t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verifier: %d checks, %d violations%s\n" t.checks t.total
       (if t.total > t.max_violations then
          Printf.sprintf " (%d shown)" t.max_violations
        else ""));
  List.iter
    (fun (point, label, viol) ->
      Buffer.add_string b
        (Printf.sprintf "  [%s:%s] %s\n" (safepoint_name point) label
           (violation_to_string viol)))
    (violations t);
  Buffer.contents b
