(* Byzantine strategies against the sticky register (Algorithm 2).

   Each strategy is a pure program over Sticky_core's register names:
   writes to the registers it owns, then Byz_script_core.responder
   parameterised by its per-round side effects and its claims. The
   naysayer and the false witness are the genomes [0] and [1]. [prog]
   maps a Byz_script.strategy to its program; [spawn] runs one as a
   daemon fiber on a hand-wired system. *)

open Lnd_support
open Lnd_runtime
open Lnd_sticky.Sticky_core
open Machine
module Sticky = Lnd_sticky.Sticky

let[@lnd.pure] respond ~n ~pid =
  Byz_script_core.responder ~n ~pid
    ~counter:(fun k -> C k)
    ~mailbox:(fun k -> Rjk (pid, k))

let[@lnd.pure] claim s payload round = ret (s, enc_stamped payload round)
let junk = Univ.inj Univ.garbage "junk"

(* Claim [va] and [vb] to different askers, and after [flip_after]
   rounds overwrite the echo and witness registers with [vb].
   Uniqueness (Observation 18) must survive: correct readers never
   return two different non-⊥ values. *)
let[@lnd.pure] equivocating_writer ~va ~vb ~flip_after ~n =
  let* () = write (E 0) (enc_vopt (Some va)) in
  let* () = write (R 0) (enc_vopt (Some va)) in
  respond ~n ~pid:0
    ~posture:(fun rounds ->
      let rounds = rounds + 1 in
      if rounds = flip_after then
        let* () = write (E 0) (enc_vopt (Some vb)) in
        let* () = write (R 0) (enc_vopt (Some vb)) in
        ret rounds
      else ret rounds)
    ~reply:(fun rounds ~asker ~round ->
      claim rounds (Some (if asker mod 2 = 0 then va else vb)) round)
    0

(* Write, let the value spread, then erase the echo and witness
   registers and pretend never to have written ("deny"). Stickiness must
   keep the value alive among the correct processes. *)
let[@lnd.pure] denying_writer ~v ~deny_after ~n =
  let* () = write (E 0) (enc_vopt (Some v)) in
  let* () = write (R 0) (enc_vopt (Some v)) in
  respond ~n ~pid:0
    ~posture:(fun (rounds, denied) ->
      let rounds = rounds + 1 in
      if (not denied) && rounds >= deny_after then
        let* () = write (E 0) (enc_vopt None) in
        let* () = write (R 0) (enc_vopt None) in
        ret (rounds, true)
      else ret (rounds, denied))
    ~reply:(fun ((_, denied) as s) ~asker:_ ~round ->
      claim s (if denied then None else Some v) round)
    (0, false)

(* Flip the claim on every reply: ⊥, v, ⊥, v, ... *)
let[@lnd.pure] flipflop ~pid ~v ~n =
  respond ~n ~pid
    ~reply:(fun count ~asker:_ ~round ->
      let count = count + 1 in
      claim count (if count mod 2 = 0 then Some v else None) round)
    0

(* Ill-typed garbage everywhere it owns; replies alternate between
   garbage and a well-typed ⊥ with a fresh stamp. *)
let[@lnd.pure] garbage ~pid ~n =
  let* () = write (E pid) junk in
  let* () = write (R pid) junk in
  respond ~n ~pid
    ~reply:(fun () ~asker:_ ~round ->
      if round mod 2 = 0 then ret ((), junk) else claim () None round)
    ()

(* Replay the first observation of the writer's echo register forever,
   with fresh timestamps — stale evidence against the freshness
   handshake. *)
let[@lnd.pure] stale_replayer ~pid ~n =
  respond ~n ~pid
    ~reply:(fun frozen ~asker:_ ~round ->
      match frozen with
      | Some u -> claim frozen u round
      | None ->
          let* e0 = read (E 0) in
          let u = dec_vopt e0 in
          claim (Some u) u round)
    None

(* The false witness echoes and witnesses a value nobody echoed and
   claims it to every asker; the naysayer answers ⊥ forever, instantly,
   pressing readers toward ⊥. *)
let[@lnd.pure] prog ~n ~pid (s : Byz_script.strategy) : (reg, unit) prog =
  Byz_script.check_writer ~pid s;
  let genome genome value =
    Byz_script_core.sticky_prog ~n ~pid ~genome ~value
  in
  match s with
  | Genome { genome = g; value } -> genome g value
  | Naysayer -> genome [| 0 |] Value.v0
  | False_witness v -> genome [| 1 |] v
  | Flipflop v -> flipflop ~pid ~v ~n
  | Garbage -> garbage ~pid ~n
  | Stale_replayer -> stale_replayer ~pid ~n
  | Denying_writer { v; deny_after } -> denying_writer ~v ~deny_after ~n
  | Equivocating_writer { va; vb; flip_after } ->
      equivocating_writer ~va ~vb ~flip_after ~n
  | Selective _ | Sign_without_write _ ->
      invalid_arg
        (Printf.sprintf "Byz_sticky: %s has no sticky-register version"
           (Byz_script.name ~pid s))

let spawn sched (regs : Sticky.regs) ~pid s : Sched.fiber =
  let prog = prog ~n:regs.Sticky.cfg.Sticky.n ~pid s in
  Sched.spawn sched ~pid ~name:(Byz_script.name ~pid s) ~daemon:true
    (fun () -> Drive.run ~cell:regs.Sticky.cell prog)
