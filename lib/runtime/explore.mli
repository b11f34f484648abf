(** Bounded systematic schedule exploration.

    Three modes over one result shape: {!exhaustive} (naive DFS over
    every scheduling decision — the baseline), {!dpor} (dynamic
    partial-order reduction with sleep sets over register-access
    interleavings — the model checker), and {!swarm} (seeded-random
    sampling for programs too large to enumerate).

    All modes are bounded safety checkers: runs exceeding [max_steps]
    are pruned as inconclusive (an adversarial schedule can starve the
    Help daemons indefinitely, so termination cannot be decided by
    exploration). [exhausted = true] means every schedule of at most
    [max_steps] steps was covered — for {!dpor}, up to commutation of
    independent steps (see DESIGN.md §4i for the soundness argument).
    {!exhaustive} and {!dpor} raise [Invalid_argument] on bounds that
    leave nothing to explore: [max_steps] or [max_runs] below 1, or a
    negative [max_preempts].

    {b The [make] protocol.} Every mode calls [make policy] exactly once
    per schedule, and [make] returns a system of the same program each
    time: either a fresh one (no steps taken), or — only if it can
    {!Sched.rewind} — the very system the previous schedule ran on, as
    that schedule left it, with [policy] installed
    ({!Sched.set_choose}). The explorer rewinds a handed-back system to
    the prefix the new schedule shares with the last one ({!dpor}: up to
    its branch node; {!exhaustive}: all but the last scripted choice;
    {!swarm}, {!replay}: step 0) and runs on from there; a fresh system
    replays that prefix from step 0 instead. A system that already ran
    but is not the previous one is rewound to step 0. *)

(** How to reproduce one specific run. *)
type schedule =
  | Indices of int list
      (** choice indices for {!Policy.scripted} (naive DFS trail) *)
  | Fids of int list  (** one fiber id per step (DPOR trail) *)
  | Seed of int  (** a {!Policy.random} seed (swarm trail) *)

type counterexample = {
  cx_schedule : schedule;  (** replays the offending run *)
  cx_note : string;  (** caller-supplied configuration description *)
  cx_steps : int;  (** length of the violating run *)
  cx_exn : exn;  (** what the caller's [check] raised *)
}

exception Violation of counterexample
(** Raised when [check] fails; the payload is self-describing and can be
    re-executed in one call with {!replay}. *)

exception Replay_diverged of { at : int; reason : string }
(** Raised when a {!Fids} trail does not match the program it is driven
    against (wrong system, truncated trail, trail/branching mismatch). *)

val pp_schedule : Format.formatter -> schedule -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit

type result = {
  runs : int;  (** schedules fully explored to quiescence *)
  pruned : int;  (** schedules cut off by the step budget *)
  exhausted : bool;  (** whole bounded space covered *)
  blocked : int;
      (** sleep-set-blocked (redundant) schedules, {!dpor} only *)
  races : int;
      (** backtrack points seeded by race detection, {!dpor} only *)
  max_depth : int;  (** deepest schedule explored *)
}

val exhaustive :
  make:(Policy.t -> Sched.t) ->
  check:(Sched.t -> unit) ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?note:string ->
  unit ->
  result
(** The naive baseline: branch on every step over every ready fiber.
    [make] follows the protocol above; [check] is called on each
    quiescent schedule. *)

val dpor :
  make:(Policy.t -> Sched.t) ->
  check:(Sched.t -> unit) ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?max_preempts:int ->
  ?note:string ->
  unit ->
  result
(** The model checker: branch only at steps that conflict (same
    register, at least one write, tracked via {!Sched.footprint} and
    vector-clock happens-before), prune commutation-equivalent
    schedules with sleep sets. Explores one representative per
    Mazurkiewicz trace; on the register protocols this is typically
    orders of magnitude fewer runs than {!exhaustive} (benchmark T15).

    [max_preempts] adds CHESS-style iterative context bounding: a
    preemption is scheduling away from a fiber that is still enabled
    and whose last step was a real register access (switches at
    yields/spawns are voluntary and always free). With the bound set,
    the covered space is "every schedule with at most [max_steps]
    steps and at most [max_preempts] preemptions, up to commutation";
    schedules needing more preemptions count as [pruned]. The
    spin-polling register protocols are unbounded without it — see
    DESIGN.md §4i.

    [make] follows the protocol above, deterministically: a run
    resumes at its branch node on a rewound system, or replays the
    committed prefix on a fresh one, and either must reach the state
    the last run had there. A replayed step only looks up its recorded
    fid; the explorer's own bookkeeping for the prefix (vector clocks,
    race candidates, sleep sets) is restored from its nodes, not
    recomputed.

    The explorer keeps its fiber sets as [int] bitsets over fiber ids,
    so it handles fids 0-61 (62 fibers per run): it raises
    [Invalid_argument], naming the limit, as soon as a ready fiber has a
    larger id. *)

val swarm :
  make:(Policy.t -> Sched.t) ->
  check:(Sched.t -> unit) ->
  ?max_steps:int ->
  ?note:string ->
  seeds:int list ->
  unit ->
  result
(** Swarm exploration: many independent seeded-random schedules of the
    same program, [check]ed at quiescence. Complements {!dpor} for
    programs too large to enumerate; a {!Violation}'s schedule carries
    the offending seed. [exhausted] is always [false]. *)

val replay :
  make:(Policy.t -> Sched.t) ->
  check:(Sched.t -> unit) ->
  ?max_steps:int ->
  schedule ->
  (unit, exn) Stdlib.result
(** Re-execute one schedule from step 0 and re-run the check. [Ok ()]
    means the check passed; [Error e] reproduces the violation. Raises
    {!Replay_diverged} if a {!Fids} trail does not fit the program: it
    names a fiber that is not ready, runs out before quiescence, or
    outlives the run — fids left once the run quiesced or spent
    [max_steps]. *)
