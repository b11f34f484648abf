(** Driver #2: the OCaml 5 domains backend.

    Executes {!Diff.work} workloads on {!Lnd_runtime.Domains} — the
    processes spread over at most one domain per core, atomic registers,
    real preemption — by driving the very same pure cores
    ([Sticky_core], [Verifiable_core], [Testorset_core],
    [Byz_script_core]) the simulator drives. The run
    folds into a {!Lnd_history.History.t} stamped by the backend's
    atomic clock and is judged by the spec-level checkers of {!Diff}. *)

val broken_value : Lnd_support.Value.t
(** The value the deliberately broken cores claim; never written by any
    workload. *)

val run : ?broken:bool -> Diff.work -> Diff.run
(** Execute a workload on the domains backend. [Diff.run.steps] counts
    machine steps across all domains. [~broken:true] substitutes cores
    whose final decision step is corrupted (pure and
    termination-preserving): a sticky reader that reports
    {!broken_value}, a verifiable reader that reports {!broken_value}
    and a verifier that always accepts, a tester that returns the
    impossible bit 2. The conformance suite uses it to prove the
    checkers reject divergent behaviour. *)

val run_traced :
  ?broken:bool ->
  ?keep:(Lnd_obs.Obs.event -> bool) ->
  Diff.work ->
  Diff.run * Diff.trace_info
(** [run] with a per-domain arena sink installed for the duration:
    domains record into preallocated per-domain buffers, the arenas
    merge deterministically on the run's unique fetch-and-add clock
    stamps, and the merged trace folds (via
    {!Lnd_history.Trace_replay}) into a second, independently derived
    history judged by the same checkers — see {!Diff.fold_trace}.
    [keep] defaults to {!Diff.parity_keep} (operation spans only).
    Operation spans bracket the recorded [[inv, ret]] intervals, so on
    an [Ok] direct verdict the trace verdict is [Ok] too. *)

val line : ?broken:bool -> Diff.work -> string
(** [describe] + verdict + rendered history (same shape as
    {!Diff.sim_line}); for the CLI. Not stable across runs — the domains
    interleaving is real. *)
