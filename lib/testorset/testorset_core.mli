(** Test-or-set (Definition 20) as a pure state machine: the SET and
    TEST programs of both Observation 25 constructions, written over the
    underlying register's own names ({!Lnd_sticky.Sticky_core.reg} or
    {!Lnd_verifiable.Verifiable_core.reg}), so the register's layout,
    help program and scripted adversaries serve test-or-set unchanged.
    The workload plan ([Lnd_parallel.Diff]) runs these programs on both
    drivers. *)

open Lnd_support

val one : Value.t
(** The value standing for the set bit. *)

(** {2 From a sticky register} *)

val set_sticky_prog :
  n:int -> q:Quorum.t -> (Lnd_sticky.Sticky_core.reg, unit) Machine.prog
(** SET = WRITE(1). *)

val test_sticky_prog :
  n:int ->
  q:Quorum.t ->
  pid:int ->
  ck:int ->
  (Lnd_sticky.Sticky_core.reg, int * int) Machine.prog
(** TEST = READ, 1 iff it returns 1. Returns (bit, new round counter);
    the driver owns the tester's persistent [ck]. *)

(** {2 From a verifiable register} *)

val set_verifiable_prog :
  written:Value.Set.t ->
  (Lnd_verifiable.Verifiable_core.reg, bool * Value.Set.t) Machine.prog
(** SET = WRITE(1); SIGN(1). Returns (signed, the setter's updated local
    written-set). *)

val test_verifiable_prog :
  n:int ->
  q:Quorum.t ->
  pid:int ->
  ck:int ->
  (Lnd_verifiable.Verifiable_core.reg, int * int) Machine.prog
(** TEST = VERIFY(1). Returns (bit, new round counter). *)
