(** Cooperative scheduler over OCaml effects and pure machines.

    Each simulated process contributes one or more fibers (operation
    fibers, plus the background Help() fiber the paper's algorithms
    require). An effect fiber runs as ordinary OCaml code and every
    shared-register access is an effect; a machine fiber
    ({!spawn_machine}) holds a {!Lnd_support.Machine} residual program
    and takes one access per step without effects. Either way the
    scheduler steps exactly one fiber per step — so register accesses
    are atomic and the set of possible interleavings is precisely that
    of the paper's asynchronous model.

    Scheduling is driven by a pluggable deterministic policy; runs replay
    exactly from (program, policy) because all randomness is seeded. A
    system of machine fibers can also journal each step ({!journal}) and
    {!rewind} to any earlier one.

    The records below are readable but private: scenario harnesses (the
    impossibility construction, the ablation tests) script phases by
    reading fiber states, and change them only through {!spawn} and
    {!kill}, which tell {!run} to recompute the ready fibers. Which of
    the ready fibers may step is the policy's choice alone: a phase that
    keeps some asleep installs a policy that never picks them
    ([Policy.only], through {!set_choose}). *)

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

(** A machine fiber's program chain: [Job (prog, k, d)] runs the core
    program [prog], then [k] on its result — inside the step in which
    [prog] returned, so [k] may {!stamp} the clock and open or close Obs
    spans — and carries the driver's value [d] meanwhile; [Done d] ends
    the fiber. The residual program and [d] are the fiber's whole state,
    so [k] must keep everything it passes on in the jobs it builds, not
    in mutable state. *)
type ('reg, 'd) job =
  | Job : ('reg, 'a) Lnd_support.Machine.prog * ('a -> ('reg, 'd) job) * 'd -> ('reg, 'd) job
  | Done of 'd

type machine
(** A machine fiber's program and journal; absent from effect fibers. *)

type pending
(** An effect fiber's paused access and continuation. *)

type stop_reason = Quiescent | Budget_exhausted | Condition_met
(** Why {!run} returned. *)

type fiber = private {
  fid : int;
  pid : int; (** the simulated process this fiber belongs to *)
  fname : string;
  daemon : bool; (** daemons (Help loops) never block quiescence *)
  sched : t; (** the scheduler that spawned this fiber *)
  mutable state : state;
      (** [Ready k] while the fiber can take a step, [Finished] for good
          once it returned, raised or was killed (or until {!rewind}
          takes that step back). An effect fiber reads [Finished] while
          its own step runs; a machine fiber keeps its [Ready] state,
          which its step overwrites only when the step changes it. *)
  mutable next_access : footprint;
      (** footprint of the next step, maintained by the effect handlers
          and the machine stepper *)
  mutable parked_at : int;
      (** park-on-yield mode: the scheduler's write count when this fiber
          yielded, or [-1] when runnable (see {!set_park_on_yield}) *)
  mutable ospan : int;
      (** ambient {!Lnd_obs.Obs} span, saved/restored at fiber switches *)
  machine : machine;
  mutable pending : pending;
      (** what an effect fiber's next step does; nothing for a machine
          fiber *)
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
  mutable footprints : footprint array;
      (** the read and write footprint of each register, made once *)
  mutable can_journal : bool;  (** see {!journal} *)
  mutable rewindable : bool;  (** see {!rewindable} *)
  mutable j_fiber : fiber array;
      (** the journal, one entry per step: the fiber stepped, *)
  mutable j_parked : int array;  (** its [parked_at] before the step, *)
  mutable j_clock : int array;  (** the clock before the step, *)
  mutable j_access : int array;
      (** the access done (0 none, 1 read, 2 write) *)
  mutable j_old : Lnd_support.Univ.t array;
      (** and a write's register value before it *)
  mutable rewound : int;  (** steps rewound away, see {!executed} *)
  mutable run_until : (t -> bool) option;
      (** the predicate of the {!run} in progress, *)
  mutable run_budget : int;  (** its [max_steps], *)
  mutable stop : stop_reason option;
      (** and why it stopped, once a step decided it *)
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

val set_choose : t -> (t -> fiber array -> int) -> unit
(** Replace the policy from the next step on: what a harness does to a
    system it hands back for another run (see {!rewind}), and what a
    phased scenario does between its phases. *)

val space : t -> Lnd_shm.Space.t
val steps : t -> int
val clock : t -> int

val executed : t -> int
(** Steps this system executed over its life: {!steps}, plus every step
    a {!rewind} took back. A run that resumed at step [k] executed
    [executed] after it minus [executed] when it began. *)

val stamp : t -> int
(** Read-and-advance the logical clock, as {!tick} does inside an effect
    fiber: what a machine fiber's job continuation calls to stamp an
    operation's invocation or response. *)

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
(** An effect fiber running [body]. Its continuations are one-shot, so
    the system can no longer {!rewind}. *)

val spawn_machine :
  t ->
  pid:int ->
  name:string ->
  ?daemon:bool ->
  ?note:(Lnd_support.Machine.note -> unit) ->
  at:('reg -> Lnd_shm.Register.t) ->
  data:'d ->
  (unit -> ('reg, 'd) job) ->
  unit ->
  'd
(** A machine fiber: its first step calls the thunk and runs the job it
    returns up to its first access, like an effect fiber's
    spawn-to-first-effect step; each later step performs one access
    through the single {!Lnd_support.Machine.step} ([at] maps the core's
    register names to this system's registers; Notes go to [note]), so
    the fiber's footprints, parking, clock ticks and Obs events are
    those of an effect fiber running the same program through [Drive].
    A [Yield] parks it like {!yield}; an exception ends it like an
    effect fiber's. Returns a reader of the value the fiber carries now:
    [data] until the first job, then its job's, then its [Done] one. *)

val journal : t -> unit
(** Journal every step from the first on, so the system can {!rewind}.
    A journal costs every step, so only systems the explorer rewinds
    switch it on ([Lnd_fuzz.Mcheck]'s [make]). No effect on a system
    that can no longer rewind; raises [Invalid_argument] once the system
    has taken a step. *)

val rewindable : t -> bool
(** The system journals its steps and can {!rewind}: {!journal} switched
    its journal on, every fiber is a machine fiber, no fiber was
    spawned or killed once it ran, no step ran under an
    installed Obs sink, and no run passed the journal's limit of 65,536
    steps. Once one of those fails, false for good. *)

val rewind : t -> int -> unit
(** [rewind t k] puts a rewindable system back as it was before step
    [k]: every fiber's program, footprint, park state and status, the
    register values and {!Lnd_shm.Space} counters, the clock, steps and
    writes. What the fibers carry comes back with their programs. Raises
    [Invalid_argument] if the system is not {!rewindable} or [k] is
    outside [0 .. steps]. *)

val kill : fiber -> unit
(** Deliberate termination; not reported by {!failures}. Killing a
    ready fiber makes its scheduler's next step recompute the ready
    fibers, so a kill from inside a fiber, a policy or an [until]
    predicate takes effect at once. The system can no longer
    {!rewind}. *)

val run : ?max_steps:int -> ?until:(t -> bool) -> t -> stop_reason
(** Run until every non-daemon fiber has finished ([Quiescent]),
    the predicate holds ([Condition_met]), or the scheduler has taken
    [max_steps] steps ([Budget_exhausted]). Daemons keep getting
    scheduled while clients run but never keep the run alive on their
    own. Each step hands [choose] the ready fibers — [Ready], not parked
    — in spawn order, in an array of exactly that length (see
    [choose]). [until] is called before each step.

    [max_steps] (default 1,000,000) bounds {!steps}, the scheduler's
    total, not the steps of this call: after [run; spawn; run] the
    second run gets only what the first one left, and a system rewound
    to step [d] takes at most [max_steps - d] more. {!Explore}'s depth
    bound relies on that: a run it resumes at depth [d] is still cut at
    depth [max_steps]. A harness that wants a budget per run passes
    [steps t + budget].

    The ready fibers are computed at entry and then kept from step to
    step. They are recomputed from [fibers] only before
    a step that follows a change to readiness: a {!spawn}, a {!kill}, a
    step whose fiber finished or parked, or a write while some fiber was
    parked. Everything else a step does leaves
    readiness as it was, so a run takes the same decisions as one that
    recomputed them before every step.

    A machine fiber's step runs inside [run]'s driver. An effect
    fiber is resumed in tail position, and the handler of the effect
    that ends its step (or of its end) does the step's last
    bookkeeping, checks [until], picks the next fiber and resumes it in
    turn: a run is one chain of tail calls, whose stack does not grow
    with its steps. A policy, an [until] or a failure hook that raises
    ends the run with that exception; the fibers stay as they were,
    and a later [run] goes on with them. Raises [Failure] if the chain
    returns without having decided why the run stopped. *)

val failures : t -> (fiber * exn) list
(** Fibers that terminated with an exception (other than {!kill}). *)

val pp_fiber : Format.formatter -> fiber -> unit

val pp_footprint : Format.formatter -> footprint -> unit
(** ["·"] for {!A_none}, ["R(name)"]/["W(name)"]/["U(name)"] otherwise. *)
