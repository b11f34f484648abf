(* Byzantine strategies against the verifiable register (Algorithm 1).

   Each strategy is a pure program over Verifiable_core's register names:
   writes to the registers it owns, then Byz_script_core.responder
   parameterised by its per-round side effects and its claims. It can
   read whatever is readable and write only registers owned by its pid —
   [Lnd_shm.Space] enforces exactly the model's restriction, so these
   adversaries have precisely the power the paper grants Byzantine
   processes. The naysayer and the false witness are the genomes [0]
   and [1]. [prog] maps a Byz_script.strategy to its program; [spawn]
   runs one as a daemon fiber on a hand-wired system. *)

open Lnd_support
open Lnd_runtime
open Lnd_verifiable.Verifiable_core
open Machine
module Verifiable = Lnd_verifiable.Verifiable
module VSet = Value.Set

let[@lnd.pure] respond ~n ~pid =
  Byz_script_core.responder ~n ~pid
    ~counter:(fun k -> C k)
    ~mailbox:(fun k -> Rjk (pid, k))

let[@lnd.pure] claim s set round = ret (s, enc_stamped set round)
let junk = Univ.inj Univ.garbage "junk"

(* Flip the vote about [v] on every reply: the §5.1 scenario meant to
   trap a reader between f < |yes| < 2f+1. *)
let[@lnd.pure] flipflop ~pid ~v ~n =
  respond ~n ~pid
    ~reply:(fun count ~asker:_ ~round ->
      let count = count + 1 in
      claim count (if count mod 2 = 0 then VSet.singleton v else VSet.empty)
        round)
    0

(* Ill-typed garbage in every register it owns, then replies alternating
   between garbage and a well-typed empty set with a fresh stamp. *)
let[@lnd.pure] garbage ~pid ~n =
  let* () = write (R pid) junk in
  let* () = if pid >= 1 then write (C pid) junk else ret () in
  respond ~n ~pid
    ~reply:(fun () ~asker:_ ~round ->
      if round mod 2 = 0 then ret ((), junk) else claim () VSet.empty round)
    ()

(* The "lie but then try to deny" Byzantine WRITER: it writes and
   "signs" [v] like a correct writer, answers askers affirmatively until
   [deny_after] replies have been sent, then erases all its registers
   (resets R*, R_0 and its mailboxes) and denies ever having signed v.
   The paper's point: once one correct reader verified v, denial must
   not flip any later VERIFY back to false. *)
let[@lnd.pure] denying_writer ~v ~deny_after ~n =
  let rec erase k =
    if k >= n then ret ()
    else
      let* () = write (Rjk (0, k)) (enc_stamped VSet.empty 0) in
      erase (k + 1)
  in
  let* () = write Rstar (enc_value v) in
  let* () = write (R 0) (enc_vset (VSet.singleton v)) in
  respond ~n ~pid:0
    ~posture:(fun ((replies, denied) as s) ->
      if (not denied) && replies >= deny_after then
        let* () = write Rstar (enc_value Value.v0) in
        let* () = write (R 0) (enc_vset VSet.empty) in
        let* () = erase 1 in
        ret (replies, true)
      else ret s)
    ~reply:(fun (replies, denied) ~asker:_ ~round ->
      claim (replies + 1, denied)
        (if denied then VSet.empty else VSet.singleton v)
        round)
    (0, false)

(* "Sign" [v] without writing it to R*: put it straight into the
   witness register. Readers may verify v; Byzantine linearizability
   still holds because a history in which the writer did
   WRITE(v);SIGN(v) explains every correct observation. *)
let[@lnd.pure] sign_without_write ~v ~n =
  let* () = write (R 0) (enc_vset (VSet.singleton v)) in
  respond ~n ~pid:0
    ~reply:(fun () ~asker:_ ~round -> claim () (VSet.singleton v) round)
    ()

(* A writer colluding with vote-flippers: claims to different askers
   that different values are signed, rewriting R_0 back and forth every
   round. *)
let[@lnd.pure] equivocating_writer ~va ~vb ~n =
  let* () = write (R 0) (enc_vset (VSet.singleton va)) in
  respond ~n ~pid:0
    ~posture:(fun () ->
      let* u = read (R 0) in
      let next = if VSet.mem va (dec_vset u) then vb else va in
      write (R 0) (enc_vset (VSet.singleton next)))
    ~reply:(fun () ~asker ~round ->
      claim () (VSet.singleton (if asker mod 2 = 0 then va else vb)) round)
    ()

(* Replay the witness set R_0 showed at the first reply, with fresh
   timestamps, forever — probing whether old evidence with new stamps
   can confuse the round protocol. *)
let[@lnd.pure] stale_replayer ~pid ~n =
  respond ~n ~pid
    ~reply:(fun frozen ~asker:_ ~round ->
      match frozen with
      | Some set -> claim frozen set round
      | None ->
          let* u = read (R 0) in
          let set = dec_vset u in
          claim (Some set) set round)
    None

(* Answer only even-numbered askers (claiming [v]) and starve the rest —
   a targeted-starvation attempt. VERIFY must still terminate for
   everyone via the correct helpers. *)
let[@lnd.pure] selective ~pid ~v ~n =
  respond ~n ~pid
    ~asks:(fun k -> k mod 2 = 0)
    ~reply:(fun () ~asker:_ ~round -> claim () (VSet.singleton v) round)
    ()

(* The false witness advertises a value the correct writer never signed
   in its witness register and claims it to every asker (the
   unforgeability attack); the naysayer always answers "no witness of
   anything", instantly. *)
let[@lnd.pure] prog ~n ~pid (s : Byz_script.strategy) : (reg, unit) prog =
  Byz_script.check_writer ~pid s;
  let genome genome value =
    Byz_script_core.verifiable_prog ~n ~pid ~genome ~value
  in
  match s with
  | Genome { genome = g; value } -> genome g value
  | Naysayer -> genome [| 0 |] Value.v0
  | False_witness v -> genome [| 1 |] v
  | Flipflop v -> flipflop ~pid ~v ~n
  | Garbage -> garbage ~pid ~n
  | Stale_replayer -> stale_replayer ~pid ~n
  | Selective v -> selective ~pid ~v ~n
  | Denying_writer { v; deny_after } -> denying_writer ~v ~deny_after ~n
  | Sign_without_write v -> sign_without_write ~v ~n
  | Equivocating_writer { va; vb; flip_after = 1 } ->
      equivocating_writer ~va ~vb ~n
  | Equivocating_writer _ ->
      invalid_arg
        "Byz_verifiable: the equivocating writer rewrites R_0 every round \
         (flip_after = 1)"

let spawn sched (regs : Verifiable.regs) ~pid s : Sched.fiber =
  let prog = prog ~n:regs.Verifiable.cfg.Verifiable.n ~pid s in
  Sched.spawn sched ~pid ~name:(Byz_script.name ~pid s) ~daemon:true
    (fun () -> Drive.run ~cell:regs.Verifiable.cell prog)
