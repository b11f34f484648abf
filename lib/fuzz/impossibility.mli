(** Executable rendition of Theorem 23 (Figures 1-3).

    The paper proves that no correct test-or-set implementation from SWMR
    registers exists when 3 <= n <= 3f, by an indistinguishability
    argument over three histories H1/H2/H3 in which the coalition
    {s} ∪ Q1 resets its registers to their initial values after a TEST by
    p_a returned 1.

    {!run_attack} runs that adversary against the test-or-set built from
    either register, instantiated {e deliberately} at n = 3f, as a
    session of the construction's plan ([Lnd_parallel.Diff]): phase 1-2
    perform SET and TEST (H1), phase 3 has the coalition reset every
    register it owns ("deny"), phase 4 wakes p_b for TEST'. The clients
    are spawned up front and each phase steps only its own processes
    ([Lnd_runtime.Policy.only] over one seeded random policy). At n = 3f
    the relay property of Lemma 22(3) is violated; at n = 3f + 1 the
    identical adversary is powerless.

    (The paper's H2 coalition goes mute after the reset, which makes
    TEST' {e hang} under Algorithm 1; actively answering "no" is within
    the coalition's Byzantine powers and surfaces the violation as a
    wrong return value instead of a non-termination — both contradict
    correctness per Definition 9.) *)

type outcome = {
  n : int;
  f : int;
  test_a : int; (** TEST by p_a after SET completes *)
  test_b : int; (** TEST' by p_b after the deny phase *)
  relay_violated : bool;
      (** the plan's judge rejected the history, with the coalition as
          the Byzantine set: a correct TEST = 1 preceded a correct
          TEST = 0, i.e. [test_a = 1 && test_b = 0] *)
  steps : int;
}

val pp_outcome : Format.formatter -> outcome -> unit

exception Phase_stuck of string
(** A phase failed to reach its goal within the step budget. *)

val partition : n:int -> f:int -> int list * int list * int list
(** The (Q1, Q2, Q3) partition of processes 3..n-1: Q1 joins the
    Byzantine coalition, Q3 sleeps until phase 4, Q2 is correct
    throughout. *)

type impl = Via_verifiable | Via_sticky
(** Which Observation 25 construction the attacked test-or-set uses; the
    impossibility is implementation-independent and the attack succeeds
    against both. *)

val run_attack :
  ?seed:int ->
  ?max_steps_per_phase:int ->
  ?impl:impl ->
  n:int ->
  f:int ->
  unit ->
  outcome
(** Requires n >= 3 and f >= 1. Default implementation:
    [Via_verifiable]. *)
