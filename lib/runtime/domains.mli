(** Driver #2: OCaml 5 domains.

    Runs the same pure {!Lnd_support.Machine} programs the simulator
    drives, but with real preemption: one domain per process, shared
    registers as atomic cells ({!Dcell}), and a global atomic logical
    clock stamping operation intervals for the history. Within a domain
    the process's machines (current operation + background daemons)
    interleave cooperatively at Yield points; across domains the
    interleaving is whatever the hardware produces. A machine whose turn
    ends in a yield is parked until some register write happens after
    that turn started (wake-on-write); a domain whose machines are all
    parked blocks instead of spinning. See DESIGN.md, "Pure cores and
    drivers". *)

open Lnd_support

(** Shared register: one [Atomic.t], so reads and writes are lock-free
    and sequentially consistent. *)
module Dcell : sig
  type t

  val make : name:string -> init:Univ.t -> t
  val name : t -> string
  val read : t -> Univ.t
  val write : t -> Univ.t -> unit
end

type clock = int Atomic.t

val tick : clock -> int
(** Next logical timestamp (atomic fetch-and-add). *)

type job
(** One client operation: a lazily-built machine program plus a [finish]
    callback receiving the invocation/response timestamps and the
    result. Jobs of one process run sequentially, in order. *)

val job :
  ?span:string * string option ->
  ?render:('a -> string) ->
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Dcell.t) ->
  finish:(inv:int -> ret:int -> 'a -> unit) ->
  (unit -> ('reg, 'a) Machine.prog) ->
  job
(** [span] names the Obs operation span (name, optional argument) the
    job runs under when a sink is installed; it is opened {e before} the
    invocation tick and closed — with [render result] — {e after} the
    response tick, so the traced interval brackets [[inv, ret]] and
    trace-derived precedence is a subset of the direct history's.
    [on_note] receives the core's protocol annotations in program order
    (default: ignore), mirroring {!Drive.run}. *)

type daemon
(** A background machine (help loop, scripted adversary). Daemons are
    abandoned once every job of the whole run has completed.
    [critical:false] marks machines whose failure must not fail the run
    (Byzantine processes, mirroring the simulator's treatment). *)

val daemon :
  label:string ->
  ?critical:bool ->
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Dcell.t) ->
  ('reg, unit) Machine.prog ->
  daemon

type t

val create : ?step_budget:int -> unit -> t
(** [step_budget] bounds Machine steps per domain, turning deadlock or
    divergence into [Error] instead of a hang. *)

val now : t -> int

val clock : t -> clock
(** The run's logical clock. A traced run installs
    [Obs.install ~clock:(fun () -> tick (clock t))] so every event gets
    a {e unique} stamp from the same fetch-and-add counter that stamps
    operation intervals: the merged multi-domain trace is then totally
    ordered by [at], independent of how the domains raced. *)

val add_process : t -> pid:int -> ?daemons:daemon list -> job list -> unit

val run : t -> (int, string) result
(** Runs each registered process on its own pooled worker domain — one
    worker per process per run — and returns once every process body has
    ended. Workers outlive the run: the pool is process-wide, spawns a
    domain only when it has too few idle workers, and never shrinks, so
    it holds as many domains as the largest run so far. A body's
    exception is re-raised here after all bodies ended (the first in pid
    order), and every write a body made happens before [run] returns.
    [Ok steps]
    (total machine steps across domains) once every job completed;
    [Error _] if a correct machine raised, a budget was exhausted, jobs
    were left incomplete, or the run stalled: every live domain blocked
    with all its machines parked, so no register write can ever come.
    A stall error names each parked machine with its pid. *)
