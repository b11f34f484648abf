(** Genome-scripted Byzantine adversaries, and the strategy vocabulary
    they belong to.

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

type t = { pid : int; genome : int array; value : Value.t }

val make : pid:int -> genome:int list -> value:Value.t -> t
val genome : t -> int list

val mutate : Rng.t -> t -> t
(** One mutation step: change a random gene, or occasionally append
    one. Deterministic in the RNG state. *)

(** What one Byzantine pid runs: a genome, or a named attack. The
    workload plan takes strategies as data ([Lnd_parallel.Diff.plan]);
    [Byz_sticky.prog] and [Byz_verifiable.prog] map one to its program,
    and raise [Invalid_argument] where it does not apply. *)
type strategy =
  | Genome of { genome : int array; value : Value.t }
  | Naysayer  (** answers ⊥ / "no witness" forever: genome [[0]] *)
  | False_witness of Value.t
      (** claims a value nobody wrote, to every asker: genome [[1]] *)
  | Flipflop of Value.t  (** flips its claim on every reply (§5.1) *)
  | Garbage  (** ill-typed garbage in every register it owns *)
  | Stale_replayer
      (** replays its first view of the writer's register, fresh-stamped *)
  | Selective of Value.t
      (** verifiable only: answers even askers only, claiming the value *)
  | Denying_writer of { v : Value.t; deny_after : int }
      (** writer only, the title adversary: writes [v], then erases its
          registers and denies it — after [deny_after] rounds (sticky)
          or replies (verifiable) *)
  | Equivocating_writer of { va : Value.t; vb : Value.t; flip_after : int }
      (** writer only: claims [va] to even askers, [vb] to odd ones
          (§1.2); on the sticky register it overwrites its [va] posture
          with [vb] at round [flip_after], on the verifiable one it
          rewrites R_0 every round, so [flip_after] must be 1 *)
  | Sign_without_write of Value.t
      (** verifiable writer only: witnesses the value without writing R* *)

val name : pid:int -> strategy -> string
(** Its fiber's name at [pid]: [byz-script<pid>] for a genome,
    [byz-naysayer<pid>], [byz-falsewitness<pid>], [byz-flipflop<pid>],
    [byz-garbage<pid>], [byz-stale<pid>], [byz-selective<pid>];
    [byz-denying-writer], [byz-equivocating-writer] and
    [byz-sign-no-write]. *)

val check_writer : pid:int -> strategy -> unit
(** Raises [Invalid_argument] for a writer strategy at a pid other than
    the writer's, 0. *)
