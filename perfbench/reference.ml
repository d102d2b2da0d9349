(* A fixed reference kernel that measures how fast the host runs at the
   moment it is probed. It shares no code with the simulator, so a
   change to the simulator cannot move it; only the host can.

   The host this benchmark was built on runs identical work at
   different speeds, in phases that can outlast a whole run (see README.md, "Host
   noise"). A window's fastest part times then come from whatever phase
   the window fell in. Probing this kernel between reps and taking its
   fastest time in the same window tells the driver which phase that
   was, so the driver can rescale the window to the host's quiet speed.

   The kernel is an integer spin (independent adds and xors, which a
   busy SMT sibling slows most) followed, for about as long, by updates
   in a 256K-entry [Hashtbl] (hashing plus bucket chasing through a few
   MB, which contention for the shared cache slows most). Of the five
   kernels tried, this pair tracked the slowdown of both the replay
   lanes and the fleet run best; with the table's share at three
   quarters, the probe slowed more than either in the slowest phases.
   It allocates nothing once the table is built: every key is already
   present, so [Hashtbl.replace] updates a bucket in place. *)

let keys = 0x3ffff

let stir h updates =
  for i = 1 to updates do
    Hashtbl.replace h ((i * 7919) land keys) i
  done

(* Built by the same stirring loop, so a probe visits the buckets in
   roughly the order they were allocated. *)
let table =
  lazy
    (let h = Hashtbl.create 16 in
     stir h (2 * keys);
     h)

(* Enough updates to take about as long as [spin] on a quiet host. *)
let probe_updates = 130_000

let spin () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 20_000_000 do
    a := !a + i;
    b := !b lxor i;
    c := !c + (i lsl 1);
    d := !d lxor (i lsr 1)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d))

(* Build the table; call before anything is timed. *)
let init () = ignore (Lazy.force table)

(* One probe: the kernel's host seconds. An untimed pass first brings
   the table back into cache, so the time does not depend on how much
   of it the rep before evicted. *)
let probe () =
  let h = Lazy.force table in
  stir h probe_updates;
  let t0 = Span.now () in
  spin ();
  stir h probe_updates;
  Span.now () -. t0

(* About the kernel's fastest time on that host (2-vCPU KVM guest, Xeon
   Sapphire Rapids, 2.0 GHz nominal). It only fixes the scale of
   rescaled figures: a run whose probe time is exactly this is left as
   measured. *)
let quiet_s = 0.045
