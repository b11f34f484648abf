(** Byzantine strategies against the sticky register (Algorithm 2).
    See [Byz_verifiable] for the ground rules — the register space gives
    these adversaries exactly the model's Byzantine power. Each is a
    pure program parameterising {!Byz_script_core.responder}, spawned as
    a daemon fiber by {!Byz_script.spawn}; the naysayer and the false
    witness are the genomes [[0]] and [[1]]. *)

open Lnd_support
open Lnd_runtime
open Lnd_sticky.Sticky

val spawn_equivocating_writer :
  Sched.t ->
  regs ->
  va:Value.t ->
  vb:Value.t ->
  ?flip_after:int ->
  unit ->
  Sched.fiber
(** Writes [va] into its echo register, later overwrites it with [vb],
    and claims different values to different askers — the §1.2
    "successively propose several values" attack. Uniqueness must
    survive. *)

val spawn_denying_writer :
  Sched.t -> regs -> v:Value.t -> ?deny_after:int -> unit -> Sched.fiber
(** Writes, lets the value spread, then erases its echo and witness
    registers and pretends it never wrote. *)

val spawn_false_witness :
  Sched.t -> regs -> pid:int -> v:Value.t -> Sched.fiber
(** Claims to witness a value nobody echoed. *)

val spawn_naysayer : Sched.t -> regs -> pid:int -> Sched.fiber
(** Answers ⊥ forever, instantly. *)

val spawn_flipflop : Sched.t -> regs -> pid:int -> v:Value.t -> Sched.fiber
(** Claim flips on every reply. *)

val spawn_garbage : Sched.t -> regs -> pid:int -> Sched.fiber
(** Ill-typed garbage everywhere it owns. *)

val spawn_stale_replayer : Sched.t -> regs -> pid:int -> Sched.fiber
(** Replays its first observation of the writer's echo register forever,
    with fresh timestamps — stale evidence against the freshness
    handshake. *)
