(** An abstract SWMR/SWSR register handle.

    Algorithms 1 and 2 are written against [Cell.t] rather than raw
    registers, so the same code runs over:
    - real shared-memory registers (the paper's base model), via
      {!shm_allocator}, where a read/write is one atomic scheduler step;
    - registers {e emulated over message passing} (the Section 9
      corollary, see [Lnd_msgpass.Regemu]), where a read/write is a whole
      quorum protocol;
    - simulated {e regular} (non-atomic) registers, via
      {!regular_allocator} (extension experiment E13). *)

open Lnd_support

type t = {
  cell_name : string;
  cell_read : unit -> Univ.t;
  cell_write : Univ.t -> unit;
}

val read : t -> Univ.t
(** Must be invoked from within a fiber. *)

val write : t -> Univ.t -> unit
(** Must be invoked from within a fiber; ownership is enforced by the
    backing implementation. *)

type allocator = t Machine.allocator
(** What [Sticky_core.layout] and [Verifiable_core.layout] allocate
    through; the backing implementation enforces owner and reader. *)

val shm_allocator : Lnd_shm.Space.t -> allocator
(** The base model: one shared-memory register per cell. *)

val regular_allocator : rng:Rng.t -> window:int -> allocator -> allocator
(** Weaken an allocator to REGULAR register semantics: a read landing
    within [window] logical-clock ticks of the latest write may return
    the previous value. The paper assumes atomic registers; this wrapper
    probes empirically how the algorithms degrade when the base registers
    are only regular (see EXPERIMENTS.md, E13). *)
