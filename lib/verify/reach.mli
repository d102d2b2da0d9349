(** Reusable reachability pass over an object registry.

    One value serves one heap for its whole life (a differ lane or a
    verifier session): each {!compute} reuses the previous pass's
    buffers, so a checkpoint pays O(reached objects + their fields) and
    allocates nothing once the buffers have grown. The differ computes it
    once per lane per checkpoint and hands the same pass to
    {!Verifier.check_heap}, which would otherwise repeat it. *)

type t

val create : unit -> t

(** [compute t reg roots] replaces [t]'s contents with the set of live
    objects reachable from the non-null, registered entries of [roots]
    by following fields. Reads [reg] only. *)
val compute : t -> Repro_heap.Obj_model.Registry.t -> int array -> unit

(** [iter f t] applies [f] to each reached id, in visit order. *)
val iter : (int -> unit) -> t -> unit

(** Number of non-null fields of reached objects naming no live object
    (dangling references), counted during {!compute}. *)
val dangling : t -> int

(** The reached ids in ascending order (a fresh array). *)
val sorted_ids : t -> int array
