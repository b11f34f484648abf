(** Byzantine strategies against the verifiable register (Algorithm 1).

    Every strategy is a pure program parameterising
    {!Byz_script_core.responder}: it can read whatever is readable and
    write only registers owned by its pid — [Lnd_shm.Space] enforces
    exactly the model's restriction, so these adversaries have precisely
    the power the paper grants Byzantine processes. All are spawned as
    daemon fibers by {!Byz_script.spawn}; the naysayer and the false
    witness are the genomes [[0]] and [[1]]. *)

open Lnd_support
open Lnd_runtime
open Lnd_verifiable.Verifiable

val spawn_flipflop : Sched.t -> regs -> pid:int -> v:Value.t -> Sched.fiber
(** A colluder that flips its vote about [v] on every reply — the §5.1
    scenario meant to trap a reader between f and 2f+1 yes votes. *)

val spawn_false_witness :
  Sched.t -> regs -> pid:int -> v:Value.t -> Sched.fiber
(** Claims to witness a value the correct writer never signed (the
    unforgeability attack). *)

val spawn_naysayer : Sched.t -> regs -> pid:int -> Sched.fiber
(** Always answers "no witness of anything", instantly. *)

val spawn_garbage : Sched.t -> regs -> pid:int -> Sched.fiber
(** Writes ill-typed garbage in every register it owns, with
    plausible-looking timestamps half the time. *)

val spawn_denying_writer :
  Sched.t -> regs -> v:Value.t -> ?deny_after:int -> unit -> Sched.fiber
(** The title adversary: writes and "signs" [v] like a correct writer,
    answers [deny_after] inquiries affirmatively, then erases all its
    registers and denies ever having signed v. *)

val spawn_sign_without_write : Sched.t -> regs -> v:Value.t -> Sched.fiber
(** Puts [v] straight into its witness register without writing R*. *)

val spawn_equivocating_writer :
  Sched.t -> regs -> va:Value.t -> vb:Value.t -> Sched.fiber
(** Claims different signed values to different askers while rewriting
    R_0 back and forth. *)

val spawn_stale_replayer : Sched.t -> regs -> pid:int -> Sched.fiber
(** Replays the witness set it saw at its first reply with fresh
    timestamps, forever — probing whether old evidence with new stamps
    can confuse the round protocol. *)

val spawn_selective : Sched.t -> regs -> pid:int -> v:Value.t -> Sched.fiber
(** Answers only even-numbered askers (claiming [v]) and starves the
    rest — a targeted-starvation attempt; VERIFY must still terminate for
    everyone via the correct helpers. *)
