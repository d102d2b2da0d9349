(** Full-heap integrity verifier.

    Cross-checks every piece of heap state the simulator maintains
    redundantly — the object registry against the RC table (header
    counts, straddle markers, stuck pins), the mark bitset, block states
    and resident lists, the free/recyclable lists, the to-space reserve,
    remembered sets, and an independent reachability oracle — and reports
    each inconsistency as a typed {!violation} record instead of raising.

    The verifier runs at configurable safepoints: before each
    stop-the-world pause (via {!Repro_heap.Heap.t.on_pre_pause}), after
    each pause (via {!Repro_engine.Sim.set_on_pause_end}), and at end of
    run. Collector-specific invariants (exact RC bounds, pending work,
    remset contents, mark-bit expectations) come from the collector's
    {!Repro_engine.Collector.introspection} record, so the same checks
    run unchanged under LXR, G1, Shenandoah, or the STW collectors. *)

(** One detected inconsistency. [expected]/[found] are human-readable
    renderings of the two sides of the failed cross-check. *)
type violation = {
  module_ : string;  (** subsystem: ["registry"], ["rc"], ["blocks"], ... *)
  invariant : string;  (** invariant name, e.g. ["straddle-marker-missing"] *)
  subject : string;  (** what it is about, e.g. ["object 42 (addr 4096)"] *)
  expected : string;
  found : string;
}

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

(** Where in the run a check fires. *)
type safepoint = Pre_pause | Post_pause | End_of_run

val safepoint_name : safepoint -> string

(** [points_of_string "pre,post,end"] parses a comma-separated safepoint
    list ("pre", "post", "end", or "all"). *)
val points_of_string : string -> (safepoint list, string) result

(** Reusable per-check buffers: slot- and block-keyed
    {!Repro_util.Stamp_set}s, int arrays for radix-sorting granule keys,
    and a {!Reach.t}. A scratch serves one caller (a verifier session, a
    differ lane) and makes a check cost O(live objects + heap metadata)
    without per-check tables; it grows to the largest heap it has
    checked and is never shrunk. *)
type scratch

val create_scratch : unit -> scratch

(** [check_heap ?scratch ?reach ?roots ?introspect heap] runs every
    integrity check once and returns the violations found (empty = heap
    is consistent). [roots] are the engine's root slots (null entries
    ignored); [introspect] defaults to
    {!Repro_engine.Collector.no_introspection}. [scratch] is reused when
    given (a fresh one otherwise). [reach], when given, must be
    {!Reach.compute} over [heap]'s registry and these [roots] with no
    mutation since; the reachability section then reuses it instead of
    recomputing it. Read-only. *)
val check_heap :
  ?scratch:scratch ->
  ?reach:Reach.t ->
  ?roots:int array ->
  ?introspect:Repro_engine.Collector.introspection ->
  Repro_heap.Heap.t ->
  violation list

(** A verification session attached to a running engine. *)
type t

(** [attach ?max_violations ~points api] installs checks at the given
    safepoints ([Pre_pause] hooks the heap's pre-pause callback,
    [Post_pause] the simulator's pause-end callback; [End_of_run] fires
    in {!finish}). At most [max_violations] (default 50) violations are
    retained, but all are counted. *)
val attach : ?max_violations:int -> points:safepoint list -> Repro_engine.Api.t -> t

(** [check_now t point ~label] forces a check outside the installed
    hooks (e.g. from a test). *)
val check_now : t -> safepoint -> label:string -> unit

(** [finish t] runs the [End_of_run] check (if requested). Call after
    {!Repro_engine.Api.finish}. *)
val finish : t -> unit

(** Retained violations, in detection order, each tagged with the
    safepoint and the pause label it was detected at. *)
val violations : t -> (safepoint * string * violation) list

(** Total violations detected (>= retained). *)
val total_violations : t -> int

(** Number of safepoint checks executed. *)
val checks_run : t -> int

(** [ok t] is [total_violations t = 0]. *)
val ok : t -> bool

(** One-line-per-violation report, prefixed with a summary line. *)
val report : t -> string
