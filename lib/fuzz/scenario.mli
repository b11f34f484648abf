(** Serialised counterexamples — the "lnd-scenario v1" format.

    A scenario bundles an {!Mcheck.config}, an {!Lnd_runtime.Explore}
    schedule and an expectation into one line-based text file, so every
    counterexample the explorers or the synthesiser ever surfaced can be
    committed under [test/fixtures/scenarios/] and re-executed
    deterministically by the regression suite. *)

module Explore = Lnd_runtime.Explore

type expect = Violation | Pass

type t = {
  sc_name : string;
  sc_note : string;  (** free text; newlines are not representable *)
  sc_cfg : Mcheck.config;
  sc_expect : expect;
  sc_schedule : Explore.schedule;
}

val magic : string
(** The required first line, ["lnd-scenario v1"]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}. Blank lines and [#] comments are ignored;
    unknown keys are an error. Omitted config fields default to the
    corresponding {!Mcheck.default} field. A config {!Mcheck.validate}
    rejects is an error too. *)

val save : string -> t -> unit
val load : string -> (t, string) result

val of_violation : name:string -> Mcheck.config -> Explore.counterexample -> t
(** Package a counterexample raised while exploring [cfg] as a scenario
    expecting a violation; the note records the configuration and the
    exception the check raised. *)

val run : ?max_steps:int -> t -> (unit, string) result
(** Re-execute the schedule against a fresh instance of the
    configuration and compare the outcome against the expectation:
    [Ok ()] iff a [Violation] scenario still violates (resp. a [Pass]
    scenario still passes). Replay divergence is an [Error]. *)
