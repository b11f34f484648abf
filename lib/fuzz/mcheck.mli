(** Model-checking harness: paper configurations as explorable systems.

    One declarative {!config} — protocol, (n, f), the actually-faulty
    pids (possibly more than the declared [f]: the deliberately
    weakened configurations), their {!Lnd_byz.Byz_script} genomes and
    the correct clients' programs — becomes the (make, check) pair the
    {!Lnd_runtime.Explore} engines drive. [make] runs the config's
    workload plan ({!Lnd_parallel.Diff.plan}) on the simulator, so the
    model checker explores the systems the differential suite runs.
    [check] runs at quiescence and raises {!Property_violated} when a
    run breaks a paper property: a correct fiber crashed, the
    protocol's judge ({!Lnd_parallel.Diff.check_sticky_history} and
    its siblings) rejected the history — an observational monitor fired
    (stickiness, Observation 18, is the uniqueness monitor's; for
    test-or-set, Definition 20, the judge's monotone check) or the
    history is not Byzantine linearizable — or, with [audit = true],
    the forensic auditor blamed a correct pid.

    [make] builds one system, switches its journal on
    ({!Lnd_runtime.Sched.journal}), and then hands that same system back
    for every later schedule, for the explorer to rewind
    ({!Lnd_runtime.Explore}'s [make] protocol); it builds a fresh one
    only when the last cannot rewind — always in audit mode, whose Obs
    sink needs a fresh trace and auditor per run. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Explore = Lnd_runtime.Explore

type model = Lnd_parallel.Diff.proto = Sticky | Verifiable | Testorset
(** The protocol explored; {!Lnd_parallel.Diff.proto_name} and
    [proto_of_name] name it. *)

type config = {
  model : model;
  n : int;
  f : int;  (** declared f: fixes every quorum threshold *)
  byzantine : int list;  (** actually faulty pids; may exceed [f] *)
  scripts : (int * int list) list;
      (** {!Lnd_byz.Byz_script} genome per scripted pid; a Byzantine
          pid without a script simply crashes (takes no steps) *)
  script_value : Value.t;  (** the value scripted adversaries claim *)
  readers : int list;  (** pids running a client read program *)
  reads : int;  (** operations per reader *)
  writes : int;  (** writer operations (testorset: SETs) *)
  audit : bool;  (** stream every run through trace + auditor *)
}

exception Property_violated of string

val validate : config -> (unit, string) result
(** [n >= 2] and [f >= 0]; every Byzantine pid in [0..n-1]; every
    scripted pid listed as Byzantine; every reader in [1..n-1]; [reads]
    and [writes] non-negative. *)

val note : config -> string
(** One-line rendering, used as the counterexample note. *)

val default : config
(** The smallest paper configuration: sticky, n = 4, f = 1, one
    honest-then-naysaying colluder, one reader, one write. *)

val weakened : config
(** The deliberately weakened synthesis target: two actual colluders
    against quorums sized for f = 1 (support-then-retract scripts can
    break stickiness on the right schedule). *)

type instance = {
  cfg : config;
  make : Policy.t -> Sched.t;
      (** the last run's system, as that run left it and with the new
          policy installed, if it can {!Lnd_runtime.Sched.rewind}; a
          fresh one otherwise *)
  check : Sched.t -> unit;  (** raises {!Property_violated} *)
  last_events : unit -> Lnd_obs.Obs.event list;
      (** the last run's event trace; empty unless [audit] *)
  last_accesses : unit -> int;
      (** register accesses in the last run: the reads plus writes
          that its Space counted ({!Lnd_shm.Space.stats}) *)
  teardown : unit -> unit;
      (** detach the Obs sink, if one was installed *)
}

val instance : config -> instance
(** Raises [Invalid_argument] with {!validate}'s message on a config it
    rejects. *)

val explore :
  ?mode:[ `Dpor | `Naive ] ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?max_preempts:int ->
  config ->
  Explore.result
(** Systematic exploration of the configuration (default: DPOR).
    Raises {!Explore.Violation} whose [cx_exn] is the
    {!Property_violated}. [max_preempts] bounds DPOR only: the naive
    DFS raises [Invalid_argument] when given one. *)

val swarm : ?max_steps:int -> seeds:int list -> config -> Explore.result
(** Seeded-random sampling of the configuration's schedules. *)

val replay :
  ?max_steps:int -> config -> Explore.schedule -> (unit, exn) result
(** Re-execute one schedule against a fresh instance of the
    configuration and re-run the check ({!Lnd_runtime.Explore.replay}:
    a fid trail must be used up exactly). *)
