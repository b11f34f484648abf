(** Byzantine strategies against the sticky register (Algorithm 2).
    See [Byz_verifiable] for the ground rules — the register space gives
    these adversaries exactly the model's Byzantine power. Each is a
    pure program parameterising {!Byz_script_core.responder}. *)

open Lnd_support
open Lnd_runtime

val prog :
  n:int -> pid:int -> Byz_script.strategy ->
  (Lnd_sticky.Sticky_core.reg, unit) Machine.prog
(** The strategy's program at [pid] among [n]; it never returns. Raises
    [Invalid_argument] for the verifiable-only strategies (selective,
    sign-without-write) and as {!Byz_script.check_writer} does. *)

val spawn :
  Sched.t -> Lnd_sticky.Sticky.regs -> pid:int -> Byz_script.strategy ->
  Sched.fiber
(** {!prog} as a daemon fiber named {!Byz_script.name} over a hand-wired
    register. *)
