(** Test-or-set (Definition 20) implemented from a sticky register and
    from a verifiable register — the two constructions of
    Observation 25:

    - from sticky: SET = WRITE(1); TEST = READ (1 iff it returns "1");
    - from verifiable (v0 = 0): SET = WRITE(1); SIGN(1); TEST = VERIFY(1).

    A sim-only wrapper over the {!Lnd_sticky.Sticky} and
    {!Lnd_verifiable.Verifiable} sim drivers, whose spans nest inside
    each SET/TEST span. The differential suite and the model checker run
    {!Testorset_core}'s programs through the workload plan
    ([Lnd_parallel.Diff.plan]) instead, with the same register accesses
    and one span per operation. *)

open Lnd_support
module T = Lnd_history.Spec.Testorset_spec

val one : Value.t
(** The value standing for the set bit. *)

type impl = Sticky_based | Verifiable_based

type backend =
  | B_sticky of
      Lnd_sticky.Sticky.regs
      * Lnd_sticky.Sticky.writer
      * Lnd_sticky.Sticky.reader option array
  | B_verifiable of
      Lnd_verifiable.Verifiable.regs
      * Lnd_verifiable.Verifiable.writer
      * Lnd_verifiable.Verifiable.reader option array
      (** Transparent so adversaries can be aimed at the underlying
          register instance. *)

type t = {
  n : int;
  f : int;
  space : Lnd_shm.Space.t;
  sched : Lnd_runtime.Sched.t;
  backend : backend;
  history : (T.op, T.res) Lnd_history.History.t;
  correct : bool array;
}

val make :
  ?policy:Lnd_runtime.Policy.t ->
  ?byzantine:int list ->
  impl:impl ->
  n:int ->
  f:int ->
  unit ->
  t

val op_set : t -> unit
(** SET by the setter (pid 0); recorded. Call from a fiber of pid 0. *)

val op_test : t -> pid:int -> int
(** TEST by a tester (pid >= 1); recorded. Returns 0 or 1. *)

val client :
  t -> pid:int -> name:string -> (unit -> unit) -> Lnd_runtime.Sched.fiber

val run :
  ?max_steps:int ->
  ?until:(Lnd_runtime.Sched.t -> bool) ->
  t ->
  Lnd_runtime.Sched.stop_reason

val byz_linearizable : ?node_budget:int -> t -> bool
