(** Analysis 3 — [sem-pure]: the machine-checked purity gate for
    [[\@lnd.pure]]-annotated functions (the contract intended for
    [step : state -> event -> state * action list] protocol cores,
    DESIGN §4j). An annotated body may not mutate state it did not
    allocate, perform ambient effects, call the scheduler, or touch the
    Transport / Wal / Disk / Obs / shared-register seams; local callees
    are checked transitively. Reads of mutable state and raising are
    allowed — purity here is effect-freedom, not referential
    transparency. *)

val check : file:string -> Typedtree.structure -> Lnd_lint_core.Findings.t list
