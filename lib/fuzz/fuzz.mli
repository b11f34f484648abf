(** Scenario fuzzer: one integer seed derives a full Byzantine scenario
    (register type, system size, adversary strategy, reader programs,
    schedule), and the scenario a workload plan
    ({!Lnd_parallel.Diff.plan}) whose adversaries are named
    {!Lnd_byz.Byz_script.strategy} values. {!run} runs that plan on the
    sim driver ({!Lnd_parallel.Diff.system}) to quiescence and takes the
    system's own verdict — no correct fiber failed, then the protocol's
    judge: the streaming monitors plus full Byzantine linearizability
    when the history is small enough for the exhaustive checker. Any
    failure is replayable from its seed alone. *)

type target = Verifiable | Sticky

type adversary =
  | No_adversary
  | Crash
  | Denying_writer
  | Equivocating_writer
  | Sign_without_write (** verifiable only *)
  | False_witnesses
  | Naysayers
  | Flipfloppers
  | Garbage
  | Stale_replayers
  | Selective (** verifiable only *)

val adversary_name : adversary -> string

type scenario = {
  seed : int;
  target : target;
  n : int;
  f : int;
  adversary : adversary;
  reader_ops : int; (** operations per correct reader *)
  writer_values : int; (** values the correct writer writes/signs *)
}

val pp_scenario : Format.formatter -> scenario -> unit

val generate : int -> scenario
(** Deterministic in the seed. *)

type report = {
  scenario : scenario;
  steps : int;
  operations : int;
  checked_linearizability : bool;
      (** the judge's [Ok] bool: false when the history was over
          {!Lnd_parallel.Diff.byzlin_op_cap} or the search gave up, so
          only the monitors ran *)
}

type outcome = (report, string) result

val run : scenario -> outcome
val run_seed : int -> outcome
