(** Algorithm 1 — signature-free SWMR multivalued verifiable register,
    writable by process p0 (the paper's p1) and readable by p1..p(n-1),
    for n >= 3f + 1 (Theorem 14).

    The registers are declared once, by {!Verifiable_core.layout}: R*
    (owner p0) holding the current value (init
    {!Lnd_support.Value.v0}), witness-set registers R_i (owner p_i), SWSR
    mailboxes R_{j,k} (owner p_j, reader p_k, k >= 1) holding ⟨witness
    set, timestamp⟩, and round counters C_k (owner p_k, k >= 1).

    Every correct process must run {!help} as a background (daemon)
    fiber; operations are called from fibers of the owning process. All
    register reads decode defensively: ill-typed contents written by a
    Byzantine owner are treated as the register's initial value.

    The [regs] record is transparent so that adversaries
    ([Lnd_byz.Byz_verifiable]) and scenario harnesses can aim at specific
    registers through its map. *)

open Lnd_support
open Lnd_runtime

type config = { n : int; f : int }

type regs = {
  cfg : config;
  q : Quorum.t;  (** the thresholds derived from [cfg] (central arithmetic) *)
  cell : Verifiable_core.reg -> Cell.t;
      (** the {!Verifiable_core.layout} map *)
}

module VSet = Value.Set

val alloc_with : Cell.allocator -> config -> regs
(** Allocate {!Verifiable_core.layout} through an arbitrary cell
    allocator: the shared-memory one (the base model), an emulated one
    (Section 9), or a regular-register one (E13). [alloc_with]
    deliberately does not insist on n > 3f: the Section 8 optimality
    experiments instantiate the algorithm outside its safe zone on
    purpose. *)

val alloc : Lnd_shm.Space.t -> config -> regs
(** [alloc_with (Cell.shm_allocator space)]. *)

(** {2 Writer (p0)} *)

type writer = {
  w_regs : regs;
  mutable written : VSet.t; (** the local set r* of lines 2/4 *)
}

val writer : regs -> writer

val write : writer -> Value.t -> unit
(** WRITE(v): lines 1-3. *)

val sign : writer -> Value.t -> bool
(** SIGN(v): lines 4-8. [true] = SUCCESS, [false] = FAIL (v was never
    written by this writer). *)

(** {2 Readers (p1 .. p(n-1))} *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }
(** Keep ONE reader handle per (process, register) for the process's
    lifetime: the round counter [ck] must be monotone across all of that
    reader's operations. *)

val reader : regs -> pid:int -> reader

val read : reader -> Value.t
(** READ(): lines 9-10. *)

val verify : reader -> Value.t -> bool
(** VERIFY(v): lines 11-24. Terminates for any correct reader when
    n > 3f (Theorem 40); outside that bound it may loop, so callers
    running deliberately-broken configurations should bound scheduler
    steps. *)

(** {2 Background helper} *)

val help : regs -> pid:int -> unit
(** Help(): lines 25-36. Runs forever; spawn as a daemon fiber of
    process [pid]. Maintains the witness set R_pid and answers ongoing
    VERIFY operations through the R_pid,k mailboxes. *)
