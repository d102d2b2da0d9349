(** SATB mark bits (§3.2.2).

    Indexed by object id rather than by address: the simulator's ids are
    stable across evacuation, so an id-indexed bit is equivalent to the
    paper's address-indexed side metadata plus the bit-forwarding that
    evacuation would otherwise require (deviation documented in
    DESIGN.md §4). The set grows automatically with the id space. *)

type t

(** [create ?capacity ()] is an empty set presized for ids below
    [capacity] (default 8192); it still grows past that on demand. *)
val create : ?capacity:int -> unit -> t

val mark : t -> int -> unit

(** [marked t id]; ids never marked are unmarked. *)
val marked : t -> int -> bool

val unmark : t -> int -> unit

(** [clear t] unmarks everything (end of an SATB epoch). *)
val clear : t -> unit

(** [iter_marked t f] calls [f] on every marked id in increasing order
    (audit support; skips zero 64-bit words, so sparse sets iterate
    quickly). *)
val iter_marked : t -> (int -> unit) -> unit
