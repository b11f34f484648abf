(** Driver #2: the OCaml 5 domains backend.

    Runs a {!Diff.work}'s plan ({!Diff.plan}) on
    {!Lnd_runtime.Domains} — the processes spread over at most one
    domain per core, the caller's among them, atomic registers whose
    ownership rules are enforced, real preemption. The plan is the
    one the simulator runs: the same pure cores, jobs and judge. The run
    folds into a {!Lnd_history.History.t} stamped by the backend's
    atomic clock. *)

val run : ?broken:bool -> Diff.work -> Diff.run
(** Execute a workload on the domains backend. [Diff.run.steps] counts
    machine steps across all domains. [~broken:true] runs the plan's
    broken cores ({!Diff.plan}); the conformance suite uses it to prove
    the judge rejects divergent behaviour. *)

val run_traced : ?broken:bool -> Diff.work -> Diff.run * Diff.trace_info
(** [run] with a per-domain arena sink installed for the duration:
    domains record into preallocated per-domain buffers, the arenas
    merge deterministically on the run's unique fetch-and-add clock
    stamps, and the merged trace folds (via
    {!Lnd_history.Trace_replay}) into a second, independently derived
    history judged by the same checkers — see {!Diff.fold_trace}. The
    trace keeps operation spans only ({!Diff.parity_keep}). Operation
    spans bracket the recorded [[inv, ret]] intervals, so on
    an [Ok] direct verdict the trace verdict is [Ok] too. *)
