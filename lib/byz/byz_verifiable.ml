(* Byzantine strategies against the verifiable register (Algorithm 1).

   Each strategy is a pure program over Verifiable_core's register names:
   writes to the registers it owns, then Byz_script_core.responder
   parameterised by its per-round side effects and its claims. It can
   read whatever is readable and write only registers owned by its pid —
   [Lnd_shm.Space] enforces exactly the model's restriction, so these
   adversaries have precisely the power the paper grants Byzantine
   processes. The naysayer and the false witness are the genomes [0]
   and [1]. Byz_script.spawn runs each as a daemon fiber. *)

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

let spawn sched (regs : Verifiable.regs) ~pid ~name (prog : n:int -> _) :
    Sched.fiber =
  Byz_script.spawn sched ~pid ~name ~cell:regs.Verifiable.cell
    (prog ~n:regs.Verifiable.cfg.Verifiable.n)

(* Flip the vote about [v] on every reply: the §5.1 scenario meant to
   trap a reader between f < |yes| < 2f+1. *)
let[@lnd.pure] flipflop ~pid ~v ~n =
  respond ~n ~pid
    ~reply:(fun count ~asker:_ ~round ->
      let count = count + 1 in
      claim count (if count mod 2 = 0 then VSet.singleton v else VSet.empty)
        round)
    0

let spawn_flipflop sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-flipflop%d" pid)
    (flipflop ~pid ~v)

(* Advertise [v] (which the correct writer never signed) in the witness
   register and claim it to every asker: the unforgeability attack. *)
let spawn_false_witness sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-falsewitness%d" pid)
    (Byz_script_core.verifiable_prog ~pid ~genome:[| 1 |] ~value:v)

(* Always answer "no witness of anything", instantly. *)
let spawn_naysayer sched regs ~pid =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-naysayer%d" pid)
    (Byz_script_core.verifiable_prog ~pid ~genome:[| 0 |] ~value:Value.v0)

(* Ill-typed garbage in every register it owns, then replies alternating
   between garbage and a well-typed empty set with a fresh stamp. *)
let[@lnd.pure] garbage ~pid ~n =
  let* () = write (R pid) junk in
  let* () = if pid >= 1 then write (C pid) junk else ret () in
  respond ~n ~pid
    ~reply:(fun () ~asker:_ ~round ->
      if round mod 2 = 0 then ret ((), junk) else claim () VSet.empty round)
    ()

let spawn_garbage sched regs ~pid =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-garbage%d" pid)
    (garbage ~pid)

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

let spawn_denying_writer sched regs ~v ?(deny_after = 2) () =
  spawn sched regs ~pid:0 ~name:"byz-denying-writer"
    (denying_writer ~v ~deny_after)

(* "Sign" [v] without writing it to R*: put it straight into the
   witness register. Readers may verify v; Byzantine linearizability
   still holds because a history in which the writer did
   WRITE(v);SIGN(v) explains every correct observation. *)
let[@lnd.pure] sign_without_write ~v ~n =
  let* () = write (R 0) (enc_vset (VSet.singleton v)) in
  respond ~n ~pid:0
    ~reply:(fun () ~asker:_ ~round -> claim () (VSet.singleton v) round)
    ()

let spawn_sign_without_write sched regs ~v =
  spawn sched regs ~pid:0 ~name:"byz-sign-no-write" (sign_without_write ~v)

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

let spawn_equivocating_writer sched regs ~va ~vb =
  spawn sched regs ~pid:0 ~name:"byz-equivocating-writer"
    (equivocating_writer ~va ~vb)

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

let spawn_stale_replayer sched regs ~pid =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-stale%d" pid)
    (stale_replayer ~pid)

(* Answer only even-numbered askers (claiming [v]) and starve the rest —
   a targeted-starvation attempt. VERIFY must still terminate for
   everyone via the correct helpers. *)
let[@lnd.pure] selective ~pid ~v ~n =
  respond ~n ~pid
    ~asks:(fun k -> k mod 2 = 0)
    ~reply:(fun () ~asker:_ ~round -> claim () (VSet.singleton v) round)
    ()

let spawn_selective sched regs ~pid ~v =
  spawn sched regs ~pid
    ~name:(Printf.sprintf "byz-selective%d" pid)
    (selective ~pid ~v)
