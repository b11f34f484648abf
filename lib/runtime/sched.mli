(** Cooperative scheduler over OCaml effects.

    Each simulated process contributes one or more fibers (operation
    fibers, plus the background Help() fiber the paper's algorithms
    require). A fiber runs as ordinary OCaml code; every shared-register
    access is an effect, and the scheduler resumes exactly one fiber per
    step — so register accesses are atomic and the set of possible
    interleavings is precisely that of the paper's asynchronous model.

    Scheduling is driven by a pluggable deterministic policy; runs replay
    exactly from (program, policy) because all randomness is seeded.

    The records below are readable but private: scenario harnesses (the
    impossibility construction, the ablation tests) script phases by
    reading fiber states, and change them only through {!spawn},
    {!kill} and {!set_enabled}, which tell {!run} to recompute the ready
    fibers. *)

exception Killed
(** Carried by fibers terminated with {!kill}. *)

type outcome = Completed | Failed of exn

(** The register access a fiber's {e next} step will perform. Access
    effects suspend the fiber and the installed continuation performs the
    access at resumption, so each step's footprint is known {e before}
    the step runs — the DPOR explorer ({!Explore.dpor}) uses this to
    decide whether two pending steps conflict without executing them.
    [A_none] covers yields and the spawn-to-first-effect prefix;
    [A_update] (read-modify-write) conflicts like a write. *)
type footprint =
  | A_none
  | A_read of Lnd_shm.Register.t
  | A_write of Lnd_shm.Register.t
  | A_update of Lnd_shm.Register.t

type fiber = private {
  fid : int;
  pid : int; (** the simulated process this fiber belongs to *)
  fname : string;
  daemon : bool; (** daemons (Help loops) never block quiescence *)
  sched : t; (** the scheduler that spawned this fiber *)
  mutable state : state;
      (** [Ready k] while the fiber can take a step, [Finished] for good
          once it returned, raised or was killed *)
  mutable next_access : footprint;
      (** footprint of the next step, maintained by the effect handlers *)
  mutable parked_at : int;
      (** park-on-yield mode: the scheduler's write count when this fiber
          yielded, or [-1] when runnable (see {!set_park_on_yield}) *)
  mutable ospan : int;
      (** ambient {!Lnd_obs.Obs} span, saved/restored at fiber switches *)
}

and state = Ready of (unit -> unit) | Finished of outcome

and t = private {
  space : Lnd_shm.Space.t;
  mutable fibers : fiber list; (** in spawn order, oldest first *)
  mutable next_fid : int;
  mutable steps : int; (** scheduler steps taken so far *)
  mutable writes : int;
      (** register writes executed so far; drives park-on-yield *)
  mutable park_on_yield : bool;  (** see {!set_park_on_yield} *)
  mutable clock : int; (** logical time: steps plus {!tick} stamps *)
  mutable enabled : fiber -> bool;
      (** scheduling mask, used by targeted phase scenarios; set it with
          {!set_enabled} *)
  mutable choose : t -> fiber array -> int;
      (** the policy: pick the index of the next fiber among the ready.
          {!run} hands it the same array from step to step and rebuilds
          it in place: it is valid only until [choose] returns, so a
          policy must neither keep nor modify it. *)
  mutable ready : fiber array;
      (** the ready fibers {!run} last computed, in spawn order *)
  mutable stale : bool;
      (** readiness may have changed since [ready] was computed *)
  mutable client_left : bool;
      (** some runnable fiber was not a daemon, as of that computation *)
  mutable any_parked : bool;
      (** some runnable fiber was parked, as of that computation *)
  mutable ready_bufs : fiber array array;
      (** the arrays [ready] is built in, one per length *)
  mutable on_failure : (fiber -> exn -> unit) option;
      (** failure hook, see {!set_on_failure} *)
  mutable last_fid : int;
      (** last fiber stepped, for observability switch events *)
}

val create : space:Lnd_shm.Space.t -> choose:(t -> fiber array -> int) -> t
(** Also points the {!Lnd_obs.Obs} logical-clock hook at this scheduler's
    clock (last-created wins), so trace events are stamped with scheduler
    time. With no sink installed the instrumentation is inert. *)

val set_on_failure : t -> (fiber -> exn -> unit) option -> unit
(** Install (or clear) a hook invoked the moment any fiber terminates
    with an exception other than {!Killed}. Harnesses use it to surface
    fiber failures loudly — e.g. re-raise, or log and fail the run —
    instead of discovering them in a post-run {!failures} sweep (or
    silently missing them). The hook runs inside the dying fiber's last
    scheduler step and must not perform scheduler effects. *)

val set_park_on_yield : t -> bool -> unit
(** Fair-scheduling reduction used by the {!Explore} engines: when on, a
    {!yield} parks the fiber until the next register write by any fiber.
    Sound for the spin-polling protocols — a fiber only yields after an
    unsuccessful read-only poll pass, and re-running that pass against
    unchanged shared state re-enters the yield with identical local
    state (pure stutter) — and it makes the bounded schedule space
    finite where raw yields make it astronomical (DESIGN.md §4i). If
    every runnable fiber ends up parked the run is a livelock and {!run}
    returns [Budget_exhausted] (inconclusive). Off by default: normal
    runs keep the paper's fully asynchronous semantics. *)

val set_enabled : t -> (fiber -> bool) -> unit
(** Replace the scheduling mask: from the next step on, {!run} steps
    only fibers the mask accepts, and a run is quiescent once no
    accepted non-daemon fiber is left. The mask must be a fixed
    predicate on fibers — {!run} consults it only when it recomputes the
    ready fibers — so change it only through this function, which makes
    the next step recompute them. *)

val space : t -> Lnd_shm.Space.t
val steps : t -> int
val clock : t -> int

(** {2 Effects available inside fiber bodies} *)

val read : Lnd_shm.Register.t -> Lnd_support.Univ.t
(** One atomic register read (one scheduler step). *)

val write : Lnd_shm.Register.t -> Lnd_support.Univ.t -> unit
(** One atomic register write (one scheduler step). *)

val yield : unit -> unit
(** Give up the step without touching memory. *)

val tick : unit -> int
(** Read-and-advance the logical clock; not a scheduling point. Used to
    stamp operation invocations/responses. *)

val now : unit -> int
(** Read the logical clock without advancing it; not a scheduling point.
    Used by the message-passing fault layer to stamp deliveries and by
    retransmission backoff timers. *)

val self : unit -> int
(** The pid of the running fiber; not a scheduling point. *)

val rmw : Lnd_shm.Register.t -> (Lnd_support.Univ.t -> Lnd_support.Univ.t) -> Lnd_support.Univ.t
(** Atomic owner-only read-modify-write, used ONLY by the message-passing
    substrate to append to channel logs (channels are FIFO queues, not
    registers). The paper's algorithms never use this. *)

(** {2 Fibers and running} *)

val spawn : t -> pid:int -> name:string -> ?daemon:bool -> (unit -> unit) -> fiber

val kill : fiber -> unit
(** Deliberate termination; not reported by {!failures}. Killing a
    ready fiber makes its scheduler's next step recompute the ready
    fibers, so a kill from inside a fiber, a policy or an [until]
    predicate takes effect at once. *)

val step_fiber : t -> fiber -> unit
(** Run one step of one ready fiber (exposed for custom drivers). It
    marks the ready fibers for recomputation when the step finished or
    parked its fiber, or wrote while another fiber was parked. *)

type stop_reason = Quiescent | Budget_exhausted | Condition_met

val run : ?max_steps:int -> ?until:(t -> bool) -> t -> stop_reason
(** Run until every enabled non-daemon fiber has finished ([Quiescent]),
    the predicate holds ([Condition_met]), or [max_steps] elapse.
    Daemons keep getting scheduled while clients run but never keep the
    run alive on their own. Each step hands [choose] the ready fibers —
    [Ready], accepted by the mask, not parked — in spawn order, in an
    array of exactly that length (see [choose]).

    The ready fibers are computed at entry and then kept from step to
    step. They are recomputed from [fibers] only before
    a step that follows a change to readiness: a {!spawn}, a {!kill}, a
    {!set_enabled}, a step whose fiber finished or parked, or a write
    while some fiber was parked. Everything else a step does leaves
    readiness as it was, so a run takes the same decisions as one that
    recomputed them before every step. *)

val failures : t -> (fiber * exn) list
(** Fibers that terminated with an exception (other than {!kill}). *)

val pp_fiber : Format.formatter -> fiber -> unit

val pp_footprint : Format.formatter -> footprint -> unit
(** ["·"] for {!A_none}, ["R(name)"]/["W(name)"]/["U(name)"] otherwise. *)
