(** A liveness watchdog over the scheduler's logical clock.

    Arm one {!entry} per pending operation; an operation whose fiber is
    still unfinished past its logical-clock deadline shows up in
    {!stalled} with the responsible fiber — a silent hang becomes a
    diagnosable report instead of an opaque step-budget exhaustion.

    The watchdog is passive (no scheduler effects, no randomness): it
    never perturbs a run, so harnesses keep it always-on and runs remain
    replayable byte-for-byte from their seeds. Drive detection with
    [Sched.run ~until:(fun _ -> Watchdog.stalled w <> [])]. *)

type entry = private {
  wd_fiber : Sched.fiber;
  wd_op : string;  (** what the fiber is trying to complete *)
  mutable wd_deadline : int;  (** moved only by {!touch} *)
}

type t

val create : Sched.t -> t

val arm : t -> fiber:Sched.fiber -> op:string -> timeout:int -> entry
(** Watch [fiber] until it finishes; it stalls if still running
    [timeout] logical-clock ticks from now. *)

val touch : t -> entry -> timeout:int -> unit
(** Progress observed: push the deadline out to now + [timeout]. *)

val stalled : t -> entry list
(** Entries whose fiber is unfinished past its deadline, in arm order.
    Pure — safe to call every scheduler step — and allocation-free
    while no entry is stalled. Until the clock passes the earliest
    deadline of an unfinished entry it answers in constant time; then it
    scans the entries. *)

val emit_stalled : t -> unit
(** Publish the current {!stalled} diagnosis as typed
    [Lnd_obs.Obs.Watchdog_stall] events (one per stalled entry, tagged
    with the stalled fiber's pid), so stalls land in recorded traces and
    an auditor can tell "slow" from "lying". No-op under the Null sink;
    emission is observation-only and never perturbs the run. *)

val pp_entry : Format.formatter -> entry -> unit
val pp_stalled : Format.formatter -> entry list -> unit
