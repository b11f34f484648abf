(* Ablation: the Section 5.1 strawman VERIFY.

   The paper motivates Algorithm 1's round structure by showing why the
   obvious approach fails: "q can ask all processes whether they are now
   willing to be witnesses of v, and then wait for 2f+1 processes to
   reply: if at least 2f+1 reply Yes then TRUE; if strictly less than f+1
   reply Yes then FALSE" — and a reader caught between f and 2f+1 Yes
   votes is stuck, because answering either way can break the relay
   property (Observation 13).

   [naive_verify] implements that strawman directly over the witness
   registers: collect the current witness sets of the first 2f+1
   processes (one snapshot, no rounds, no set_1/set_0 bookkeeping) and
   return yes-count >= f+1. It terminates always — but the test suite
   demonstrates a schedule where it returns TRUE and a later
   [naive_verify] returns FALSE for the same value: the relay violation
   Algorithm 1 exists to prevent. *)

open Lnd_support
open Lnd_runtime

(* The witness set in R_j. *)
let read_vset (rg : Verifiable.regs) j =
  Univ.prj_default Codecs.vset ~default:Value.Set.empty
    (Cell.read (rg.Verifiable.cell (Verifiable_core.R j)))

(* One-shot strawman verify, runnable by any process. *)
let naive_verify (rg : Verifiable.regs) (v : Value.t) : bool =
  let q = rg.Verifiable.q in
  let replies = min (Quorum.n q) (Quorum.byz_quorum q) in
  let yes = ref 0 in
  for j = 0 to replies - 1 do
    if Value.Set.mem v (read_vset rg j) then incr yes
  done;
  Quorum.has_one_correct q !yes

(* A one-shot naive verify that polls every register (a seemingly
   stronger strawman — same flaw). *)
let naive_verify_all (rg : Verifiable.regs) (v : Value.t) : bool =
  let q = rg.Verifiable.q in
  let yes = ref 0 in
  for j = 0 to Quorum.n q - 1 do
    if Value.Set.mem v (read_vset rg j) then incr yes
  done;
  Quorum.has_one_correct q !yes
