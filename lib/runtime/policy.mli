(** Scheduling policies.

    A policy picks the next fiber to step among the ready ones. All
    policies are deterministic functions of their construction arguments,
    so a whole run replays from (program, policy). *)

type t = Sched.t -> Sched.fiber array -> int
(** [policy sched ready] returns an index into [ready]. {!Sched.run}
    reuses the [ready] array from step to step, so a policy must not
    keep it after returning. *)

val round_robin : unit -> t
(** Strict rotation over fiber ids: every ready fiber is stepped within
    one revolution — the strongest fairness. *)

val random : seed:int -> t
(** Uniformly random among ready fibers; fair with probability 1. *)

val random_biased : seed:int -> slow:int list -> penalty:int -> t
(** Random, but fibers of [slow] pids are scheduled less often: models
    processes much slower than others while remaining fair. *)

val only : (Sched.t -> Sched.fiber -> bool) -> t -> t
(** [only ok inner] steps only the ready fibers [ok] accepts: it hands
    [inner] those, in spawn order, and maps its pick back, so {!random}
    draws as it would over exactly those fibers. A phased scenario keeps
    processes asleep by installing it with {!Sched.set_choose}. Fibers it
    never picks still count for quiescence: a run stops on its [until]
    predicate or budget, not when the accepted clients are done. Raises
    [Invalid_argument] when [ok] accepts none of the ready fibers. *)

val scripted : script:int list -> trail:(int * int) list ref -> t
(** Replay an explicit choice sequence (indices into the ready array,
    ordered by fid); used by {!Explore}. Past the end of the script it
    picks index 0. [trail] accumulates (choice, branching degree) pairs,
    most recent first, so the explorer can enumerate sibling schedules. *)
