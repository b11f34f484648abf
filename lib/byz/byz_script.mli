(** Genome-scripted Byzantine adversaries.

    A script is a plain int array that fully determines one Byzantine
    responder's behaviour, so a (schedule, genome) pair replays a whole
    adversarial execution exactly. The adversary-synthesis loop
    (Lnd_fuzz.Synth) searches this space by mutating genes; the model
    checker (Lnd_fuzz.Mcheck) uses fixed scripts as deterministic
    adversaries inside DPOR exploration.

    Layout (every gene is reduced mod 3, so any int list is a valid
    genome; the genome cycles once exhausted, and the empty genome
    behaves as all-zeroes):

    - gene 0 — posture on the process's announcement register: [0]
      stay silent, [1] claim [value], [2] honestly copy the writer. On
      the sticky register this is its echo [E_pid]. On the verifiable
      register it is [R*], which only the writer owns: there [1] makes
      the writer claim [value], and [0] and [2] leave [R*] alone.
    - gene 1 — posture on its witness register [R_pid], decoded like
      gene 0 on the sticky register (on the verifiable one, [2] copies
      the writer's witness set [R_0] once it is non-empty).
    - genes 2.. — one per reply sent to an asker: [0] deny (⊥ / empty
      witness set), [1] claim [value], [2] honestly forward its own
      witness register.

    The named naysayer is genome [[0]] and the named false witness
    genome [[1]], on both registers. *)

open Lnd_support
open Lnd_runtime

type t = { pid : int; genome : int array; value : Value.t }

val make : pid:int -> genome:int list -> value:Value.t -> t
val genome : t -> int list

val mutate : Rng.t -> t -> t
(** One mutation step: change a random gene, or occasionally append
    one. Deterministic in the RNG state. *)

val spawn :
  Sched.t -> pid:int -> name:string -> cell:('reg -> Cell.t) ->
  ('reg, unit) Machine.prog -> Sched.fiber
(** Run a responder program ({!Byz_script_core}) as a daemon fiber of
    [pid] over the register map [cell]. Every lnd_byz adversary runs on
    the simulator through it. *)

val spawn_sticky : Sched.t -> Lnd_sticky.Sticky.regs -> t -> Sched.fiber
(** Run the script against the sticky register's layout (a daemon
    fiber, like every lnd_byz adversary). *)

val spawn_verifiable :
  Sched.t -> Lnd_verifiable.Verifiable.regs -> t -> Sched.fiber
(** Run the script against the verifiable register's layout. *)
