(** Cooperative scheduler over OCaml effects.

    Each simulated process contributes one or more fibers (operation
    fibers, plus the background Help() fiber the paper's algorithms
    require). A fiber runs as ordinary OCaml code; every shared-register
    access is an effect, and the scheduler resumes exactly one fiber per
    step — so register accesses are atomic and the set of possible
    interleavings is precisely that of the paper's asynchronous model.

    Scheduling is driven by a pluggable deterministic policy; runs replay
    exactly from (program, policy) because all randomness is seeded.

    The records below are deliberately transparent: scenario harnesses
    (the impossibility construction, the ablation tests) script phases by
    reading fiber states and setting the [enabled] mask directly. *)

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

type fiber = {
  fid : int;
  pid : int; (** the simulated process this fiber belongs to *)
  fname : string;
  daemon : bool; (** daemons (Help loops) never block quiescence *)
  mutable state : state;
  mutable next_access : footprint;
      (** footprint of the next step, maintained by the effect handlers *)
  mutable parked_at : int;
      (** park-on-yield mode: the scheduler's write count when this fiber
          yielded, or [-1] when runnable (see {!set_park_on_yield}) *)
  mutable ospan : int;
      (** ambient {!Lnd_obs.Obs} span, saved/restored at fiber switches *)
}

and state = Ready of (unit -> unit) | Finished of outcome

type t = {
  space : Lnd_shm.Space.t;
  mutable fibers : fiber list; (** in spawn order, oldest first *)
  mutable next_fid : int;
  mutable steps : int; (** scheduler steps taken so far *)
  mutable writes : int;
      (** register writes executed so far; drives park-on-yield *)
  mutable park_on_yield : bool;  (** see {!set_park_on_yield} *)
  mutable clock : int; (** logical time: steps plus {!tick} stamps *)
  mutable enabled : fiber -> bool;
      (** scheduling mask, used by targeted phase scenarios *)
  mutable choose : t -> fiber array -> int;
      (** the policy: pick the index of the next fiber among the ready.
          {!run} reuses the ready array from step to step: it is valid
          only until [choose] returns, so a policy must not keep it. *)
  mutable ready_bufs : fiber array array;
      (** {!run}'s reused ready arrays, one per length *)
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
(** Deliberate termination; not reported by {!failures}. *)

val step_fiber : t -> fiber -> unit
(** Run one step of one ready fiber (exposed for custom drivers). *)

type stop_reason = Quiescent | Budget_exhausted | Condition_met

val run : ?max_steps:int -> ?until:(t -> bool) -> t -> stop_reason
(** Run until every enabled non-daemon fiber has finished ([Quiescent]),
    the predicate holds ([Condition_met]), or [max_steps] elapse.
    Daemons keep getting scheduled while clients run but never keep the
    run alive on their own. Each step hands [choose] the ready fibers in
    spawn order, in a buffer of exactly that length that [t] keeps and
    refills on later steps (see [choose]). *)

val failures : t -> (fiber * exn) list
(** Fibers that terminated with an exception (other than {!kill}). *)

val pp_fiber : Format.formatter -> fiber -> unit

val pp_footprint : Format.formatter -> footprint -> unit
(** ["·"] for {!A_none}, ["R(name)"]/["W(name)"]/["U(name)"] otherwise. *)
