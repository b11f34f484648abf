(** Reconstruct operation histories from a recorded {!Lnd_obs} trace.

    Operation spans carry their argument at open and their result at
    close, so a trace is a complete substitute for the bespoke history
    plumbing: the same {!Byzlin} verdict must come out of a replayed
    trace as out of the directly recorded history (the trace-driven
    checker tests in [test_obs.ml] assert exactly that). The trace's
    [Shm_access] events need no fold: the auditor ([Lnd_audit.Audit])
    judges them as they stream.

    Spans whose close is missing or marked [aborted] become incomplete
    history entries ([ret = None]) — the same treatment an in-flight
    operation gets from {!History.record} when its fiber dies. Spans
    with names that are not operations of the target spec (HELP rounds,
    EMU_* emulation internals) are ignored. *)

val verifiable_history :
  Lnd_obs.Obs.event list ->
  (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) History.t
(** WRITE/READ/SIGN/VERIFY spans as a verifiable-register history. *)

val sticky_history :
  Lnd_obs.Obs.event list ->
  (Spec.Sticky_spec.op, Spec.Sticky_spec.res) History.t
(** WRITE/READ spans as a sticky-register history. *)

val testorset_history :
  Lnd_obs.Obs.event list ->
  (Spec.Testorset_spec.op, Spec.Testorset_spec.res) History.t
(** SET/TEST spans as a test-or-set history. The WRITE/SIGN/READ/VERIFY
    spans of the underlying register construction nest inside them and
    are ignored here, so both Observation 25 constructions fold to the
    same spec-level history. *)
