(** Algorithm 2 — signature-free SWMR sticky register, writable by p0
    (the paper's p1) and readable by p1..p(n-1), for n >= 3f + 1
    (Theorem 19).

    The registers are declared once, by {!Sticky_core.layout}: echo
    registers E_i and witness registers R_i (owner p_i), SWSR mailboxes
    R_{j,k} (owner p_j, reader p_k, k >= 1) holding ⟨witnessed value or
    ⊥, timestamp⟩, and round counters C_k (owner p_k, k >= 1).

    Once any correct process reads v ≠ ⊥, every later read returns v,
    even if the writer is Byzantine (Observation 18). Correct processes
    must run {!help} in the background. The [regs] record is transparent
    for the same reason as in {!Lnd_verifiable.Verifiable}. *)

open Lnd_support
open Lnd_runtime

type config = { n : int; f : int }

type regs = {
  cfg : config;
  q : Quorum.t;  (** the thresholds derived from [cfg] (central arithmetic) *)
  cell : Sticky_core.reg -> Cell.t;  (** the {!Sticky_core.layout} map *)
}

val alloc_with : Cell.allocator -> config -> regs
(** Allocate {!Sticky_core.layout} through an arbitrary cell allocator
    (shared memory, emulated, or regular — see [Lnd_runtime.Cell]). *)

val alloc : Lnd_shm.Space.t -> config -> regs

(** {2 Writer (p0)} *)

type writer = { w_regs : regs }

val writer : regs -> writer

val write : writer -> Value.t -> unit
(** WRITE(v): lines 1-6 — writes the echo register, then waits until
    n-f processes witness the value (see the §7.1 ablation for why the
    wait is load-bearing). A second WRITE is a no-op returning done. *)

(** {2 Readers (p1 .. p(n-1))} *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }
(** Keep ONE reader handle per (process, register) for the process's
    lifetime: [ck] must be monotone across all of that reader's reads. *)

val reader : regs -> pid:int -> reader

val read : reader -> Value.t option
(** READ(): lines 7-22; [None] is ⊥. Terminates for correct readers when
    n > 3f (Lemma 110). *)

(** {2 Background helper} *)

val help : regs -> pid:int -> unit
(** Help(): lines 23-40. Runs forever; spawn as a daemon fiber of
    process [pid]. Echoes the writer's value, becomes a witness via the
    strict (echo-quorum) policy, and answers ongoing READs. *)
