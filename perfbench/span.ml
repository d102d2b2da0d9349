(* Host-side spans recorded around calls into the simulator's public
   functions. Off by default: [with_] then just calls its argument, so
   untraced runs pay one branch per call. When on, every span keeps its
   name, the key of what it measured (e.g. "lusearch/lxr"), its parent,
   wall-clock start and stop, and the host bytes allocated inside it.
   Spans stay in memory and are written out once, at exit. *)

type t = {
  id : int;
  name : string;
  key : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start : float;
  mutable stop : float;
  alloc_start : float;
  mutable alloc : float;  (** host bytes allocated between start and stop *)
}

let now = Unix.gettimeofday
let word_bytes = Float.of_int (Sys.word_size / 8)

(* Every host allocation: minor-heap words plus words allocated directly
   in the major heap (promoted words are already counted as minor). *)
let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. word_bytes

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let current = ref (-1)

let with_ ?(key = "") name f =
  if not !enabled then f ()
  else begin
    let s =
      { id = !next_id; name; key; parent = !current; start = now ();
        stop = Float.nan; alloc_start = allocated_bytes (); alloc = 0.0 }
    in
    incr next_id;
    recorded := s :: !recorded;
    current := s.id;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        s.alloc <- allocated_bytes () -. s.alloc_start;
        current := s.parent)
  end

(** [scope name f] runs [f] under a new span and returns that span;
    tracing must be on. *)
let scope name f =
  assert !enabled;
  let id = !next_id in
  with_ name f;
  List.find (fun s -> s.id = id) !recorded

let duration s = s.stop -. s.start

(** Closed spans in start order. *)
let all () = List.rev (List.filter (fun s -> not (Float.is_nan s.stop)) !recorded)

(** Spans named [name] (and keyed [key], when given) whose interval lies
    inside [within]. *)
let find ?within ?key name =
  List.filter
    (fun s ->
      s.name = name
      && (match key with Some k -> s.key = k | None -> true)
      && match within with
         | Some w -> s.start >= w.start && s.stop <= w.stop
         | None -> true)
    (all ())

(** Self time: the span's duration minus the time its direct children
    cover. *)
let self_time s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) (all ())

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"key\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.9f,\"alloc_bytes\":%.0f}\n"
        s.id s.name s.key s.parent s.start s.stop (self_time s) s.alloc)
    (all ());
  close_out oc
