(** Driver #2: OCaml 5 domains.

    Runs the same pure {!Lnd_support.Machine} programs the simulator
    drives, but with real preemption: shared registers as atomic cells
    ({!Dcell}), a global atomic logical clock stamping operation
    intervals for the history, and a run's processes spread over at most
    [Domain.recommended_domain_count ()] domains. Each machine runs in
    turns: one {!Lnd_support.Machine.advance} call from its last [Yield]
    to its next, reading and writing {!Dcell}s directly. Within a domain
    the machines of the processes it hosts (each one's current operation
    + background daemons) interleave cooperatively at those Yield
    points; across domains the interleaving is whatever the hardware
    produces. A machine whose turn ends in a yield is parked until some
    register write happens after that turn started (wake-on-write); a
    domain whose machines are all parked blocks instead of spinning. See
    DESIGN.md, "Pure cores and drivers". *)

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
(** [step_budget] bounds machine steps per domain, shared by the
    processes the domain hosts, turning deadlock or divergence into
    [Error] instead of a hang. A turn counts one step when it starts and
    one per register read. *)

val now : t -> int

val clock : t -> clock
(** The run's logical clock. A traced run installs
    [Obs.install ~clock:(fun () -> tick (clock t))] so every event gets
    a {e unique} stamp from the same fetch-and-add counter that stamps
    operation intervals: the merged multi-domain trace is then totally
    ordered by [at], independent of how the domains raced. *)

val add_process : t -> pid:int -> ?daemons:daemon list -> job list -> unit

val run : t -> (int, string) result
(** Runs the n registered processes on g pooled worker domains, where
    g = min(n, [Domain.recommended_domain_count ()]): the i-th process in
    pid order runs on domain i mod g, whose loop gives every runnable
    machine of every process it hosts one turn per pass, in pid order,
    and blocks only when none of them ran. [run] returns once every
    domain's body has ended. Workers outlive the run: the pool is
    process-wide, spawns a domain only when it has too few idle workers,
    and never shrinks, so it holds at most
    [Domain.recommended_domain_count ()] workers per concurrent run. No
    body runs on the calling domain. A body's exception is re-raised
    here after all bodies ended (the first in domain order), and every
    write a body made happens before [run] returns. [Ok steps] (total
    machine steps across domains) once every job completed; [Error _] if
    a correct machine raised, a budget was exhausted, jobs were left
    incomplete, or the run stalled: every live domain blocked with all
    its machines parked, so no register write can ever come. A stall
    error names each parked machine with its pid, in pid order. *)
