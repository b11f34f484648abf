(** Driver #1: run a pure protocol core ({!Lnd_support.Machine}) on the
    deterministic effects-based simulator.

    A loop over {!Lnd_support.Machine.advance}: one register read or
    write is one {!Cell.read}/{!Cell.write} (one scheduler step each, in
    program order); one [Yield] is one {!Sched.yield}. A core driven
    here performs exactly the effect sequence of the inlined
    implementation it was extracted from. *)

open Lnd_support

val run :
  ?on_note:(Machine.note -> unit) ->
  cell:('reg -> Cell.t) ->
  ('reg, 'a) Machine.prog ->
  'a
(** Must be invoked from within a fiber. [on_note] receives protocol
    annotations in program order (default: ignore); protocol drivers map
    them to Obs spans. *)

val help_note : unit -> Machine.note -> unit
(** A fresh HELP-span handler for one help daemon, on either driver:
    [Serving askers] opens a HELP span (argument: the askers), [Served]
    closes it, both only while an Obs sink is installed. So a trace
    shows one span per round that served askers, not one per idle poll.
    Make one per daemon: the span id lives from [Serving] to [Served],
    across that daemon's turns. *)
