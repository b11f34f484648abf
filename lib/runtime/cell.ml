(* An abstract SWMR/SWSR register handle.

   Algorithms 1 and 2 are written against [Cell.t] rather than raw
   [Lnd_shm.Register.t], so that the same code runs over

   - real shared-memory registers (the paper's base model), via
     [shm_allocator], where a read/write is one atomic scheduler step; or
   - registers *emulated over message passing* (the Section 9 corollary,
     see Lnd_msgpass.Regemu), where a read/write is a whole quorum
     protocol.

   [read]/[write] must be invoked from within a fiber; ownership and
   readability are enforced by the backing implementation. *)

open Lnd_support
open Lnd_shm

type t = {
  cell_name : string;
  cell_read : unit -> Univ.t;
  cell_write : Univ.t -> unit;
}

let read (c : t) : Univ.t = c.cell_read ()
let write (c : t) (v : Univ.t) : unit = c.cell_write v

type allocator = t Machine.allocator

let of_register (r : Register.t) : t =
  {
    cell_name = r.Register.name;
    cell_read = (fun () -> Sched.read r);
    cell_write = (fun v -> Sched.write r v);
  }

(* The base model: one shared-memory register per cell. *)
let shm_allocator (space : Space.t) : allocator =
 fun ~name ~owner ?single_reader ~init () ->
  of_register (Space.alloc space ~name ~owner ?single_reader ~init ())

(* ------------------------------------------------------------------ *)
(* Regular-register simulation (extension experiment E13)              *)
(* ------------------------------------------------------------------ *)

(* Decorate an allocator so that its cells behave like REGULAR registers
   instead of atomic ones: a read that lands within [window] logical-clock
   ticks of the latest write may return the previous value (the classic
   "old or new during overlap" weakening). The paper assumes atomic
   registers; this wrapper lets the test suite probe empirically how
   Algorithms 1 and 2 degrade when the base registers are only regular —
   the strength actually offered by simpler message-passing emulations.

   The old-value bookkeeping is writer-side shadow state; with multiple
   fibers of the owning process writing the same cell it is approximate,
   which only makes the simulated adversary weaker or stronger by one
   version — acceptable for an adversarial robustness experiment. *)
let regular_allocator ~(rng : Lnd_support.Rng.t) ~(window : int)
    (inner : allocator) : allocator =
 fun ~name ~owner ?single_reader ~init () ->
  let cell = inner ~name ~owner ?single_reader ~init () in
  let prev = ref init in
  let cur = ref init in
  let last_write = ref min_int in
  {
    cell_name = name ^ "~regular";
    cell_read =
      (fun () ->
        let v = cell.cell_read () in
        let now = Sched.tick () in
        if now - !last_write <= window && Lnd_support.Rng.bool rng then !prev
        else v);
    cell_write =
      (fun v ->
        prev := !cur;
        cur := v;
        last_write := Sched.tick ();
        cell.cell_write v);
  }
