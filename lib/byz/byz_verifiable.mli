(** Byzantine strategies against the verifiable register (Algorithm 1).

    Every strategy is a pure program parameterising
    {!Byz_script_core.responder}: it can read whatever is readable and
    write only registers owned by its pid — [Lnd_shm.Space] enforces
    exactly the model's restriction, so these adversaries have precisely
    the power the paper grants Byzantine processes. *)

open Lnd_support
open Lnd_runtime

val prog :
  n:int -> pid:int -> Byz_script.strategy ->
  (Lnd_verifiable.Verifiable_core.reg, unit) Machine.prog
(** The strategy's program at [pid] among [n]; it never returns. Raises
    [Invalid_argument] for an equivocating writer whose [flip_after] is
    not 1 and as {!Byz_script.check_writer} does. *)

val spawn :
  Sched.t -> Lnd_verifiable.Verifiable.regs -> pid:int ->
  Byz_script.strategy -> Sched.fiber
(** {!prog} as a daemon fiber named {!Byz_script.name} over a hand-wired
    register. *)
