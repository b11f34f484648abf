(* Genome-scripted Byzantine adversaries.

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
   Byz_script_core.responder. *)

open Lnd_support
open Lnd_runtime

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

(* How every lnd_byz adversary runs on the simulator: one daemon fiber
   driving a responder program over the register map. *)
let spawn sched ~pid ~name ~cell prog : Sched.fiber =
  Sched.spawn sched ~pid ~name ~daemon:true (fun () -> Drive.run ~cell prog)

let name (sc : t) = Printf.sprintf "byz-script%d" sc.pid

let spawn_sticky sched (regs : Lnd_sticky.Sticky.regs) (sc : t) : Sched.fiber =
  let open Lnd_sticky.Sticky in
  spawn sched ~pid:sc.pid ~name:(name sc) ~cell:regs.cell
    (Byz_script_core.sticky_prog ~n:regs.cfg.n ~pid:sc.pid ~genome:sc.genome
       ~value:sc.value)

let spawn_verifiable sched (regs : Lnd_verifiable.Verifiable.regs) (sc : t) :
    Sched.fiber =
  let open Lnd_verifiable.Verifiable in
  spawn sched ~pid:sc.pid ~name:(name sc) ~cell:regs.cell
    (Byz_script_core.verifiable_prog ~n:regs.cfg.n ~pid:sc.pid
       ~genome:sc.genome ~value:sc.value)
