(** Sets of small non-negative ints (slots, ids, block indices) that are
    emptied in O(1).

    A set is an int array of epoch stamps: membership means "stamped
    with the current epoch", so {!clear} is one increment instead of a
    fill. It suits a pass that is repeated many times over a
    slowly-growing key space — the verifier's per-check membership
    tables, the differ's per-checkpoint live-set comparison — where a
    hash table would allocate per key and a fill would cost the whole
    key range every time. Storage grows to the largest key added and is
    never released. *)

type t

(** An empty set. *)
val create : unit -> t

(** Removes every member, in O(1). *)
val clear : t -> unit

val mem : t -> int -> bool

(** [add t i] makes [i] (which must be [>= 0]) a member and returns
    whether it was absent. *)
val add : t -> int -> bool
