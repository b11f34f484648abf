(* Genome-scripted Byzantine adversaries, and the strategy vocabulary
   they belong to.

   A script is a plain int array that fully determines one Byzantine
   responder's behaviour: two leading "posture" genes choose what the
   process advertises in its owned protocol registers, and every
   subsequent gene is consumed — one per reply — to decide what the
   process claims to the next asker it answers. The interpretation is
   deterministic (no RNG, no wall clock), so a (schedule, genome) pair
   replays a whole adversarial execution exactly; the synthesiser
   (Lnd_fuzz.Synth) searches this space by mutating genes.

   Gene decoding is total: any int is reduced mod 3, so random mutation
   never produces an invalid script. Genomes cycle once exhausted; the
   empty genome behaves as all-zeroes. Two named strategies are genomes
   on both registers: the naysayer is [0] and the false witness [1]
   (Byz_sticky, Byz_verifiable). All-two is an honest-but-slow helper,
   and mixed genes express the support-then-retract colluders behind
   the weakened-quorum attacks. The other named strategies need what
   the genes cannot say (ill-typed writes, a frozen read, askers told
   apart, replies that do not follow the posture genes' cycle, postures
   rewritten later) and are their own parameterisations of
   Byz_script_core.responder.

   A strategy is a genome or a named attack: the one vocabulary the
   workload plan, the fuzzer and the hand-wired harnesses name their
   adversaries in. *)

open Lnd_support

type t = { pid : int; genome : int array; value : Value.t }

let make ~pid ~genome ~value : t = { pid; genome = Array.of_list genome; value }
let genome (sc : t) : int list = Array.to_list sc.genome

let mutate rng (sc : t) : t =
  let len = Array.length sc.genome in
  if len = 0 then { sc with genome = [| Rng.int rng 6 |] }
  else if Rng.int rng 4 = 0 then
    (* occasionally grow: a longer genome can change behaviour later in
       the run than any point mutation *)
    { sc with genome = Array.append sc.genome [| Rng.int rng 6 |] }
  else begin
    let g = Array.copy sc.genome in
    g.(Rng.int rng len) <- Rng.int rng 6;
    { sc with genome = g }
  end

type strategy =
  | Genome of { genome : int array; value : Value.t }
  | Naysayer
  | False_witness of Value.t
  | Flipflop of Value.t
  | Garbage
  | Stale_replayer
  | Selective of Value.t
  | Denying_writer of { v : Value.t; deny_after : int }
  | Equivocating_writer of { va : Value.t; vb : Value.t; flip_after : int }
  | Sign_without_write of Value.t

(* A genome's fiber name is formatted once per pid: the plan's systems
   name one per scripted pid on every run. *)
let script_name = Machine.names (Printf.sprintf "byz-script%d")

let name ~pid = function
  | Genome _ -> script_name pid
  | Naysayer -> Printf.sprintf "byz-naysayer%d" pid
  | False_witness _ -> Printf.sprintf "byz-falsewitness%d" pid
  | Flipflop _ -> Printf.sprintf "byz-flipflop%d" pid
  | Garbage -> Printf.sprintf "byz-garbage%d" pid
  | Stale_replayer -> Printf.sprintf "byz-stale%d" pid
  | Selective _ -> Printf.sprintf "byz-selective%d" pid
  | Denying_writer _ -> "byz-denying-writer"
  | Equivocating_writer _ -> "byz-equivocating-writer"
  | Sign_without_write _ -> "byz-sign-no-write"

let check_writer ~pid s =
  match s with
  | (Denying_writer _ | Equivocating_writer _ | Sign_without_write _)
    when pid <> 0 ->
      invalid_arg
        (Printf.sprintf "Byz_script: %s runs only at the writer, not at pid %d"
           (name ~pid s) pid)
  | _ -> ()
