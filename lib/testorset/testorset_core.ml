(* Test-or-set (Definition 20) as a pure state machine: the SET and TEST
   programs of the two Observation 25 constructions, over the underlying
   register core's own register names.

   - From a sticky register R: SET = WRITE(1); TEST = READ, returning 1
     iff the read returns 1.
   - From a verifiable register R (v0 = 0): SET = WRITE(1); SIGN(1);
     TEST = VERIFY(1), returning 1 iff the verify returns true.

   The register's layout, Help program and scripted adversaries are the
   underlying core's, unchanged. The workload plan (Lnd_parallel.Diff)
   runs these programs on both drivers; the sim-only Testorset reaches
   the same register cores through the sticky/verifiable sim drivers.
   Both execute identical access sequences. *)

open Lnd_support
open Machine
module S_core = Lnd_sticky.Sticky_core
module V_core = Lnd_verifiable.Verifiable_core

let one : Value.t = "1"

(* ---------------- From a sticky register ---------------- *)

let[@lnd.pure] set_sticky_prog ~n ~(q : Quorum.t) : (S_core.reg, unit) prog =
  S_core.write_prog ~n ~q one

(* Returns (bit, new round counter); the driver owns the tester's
   persistent [ck]. *)
let[@lnd.pure] test_sticky_prog ~n ~(q : Quorum.t) ~pid ~ck :
    (S_core.reg, int * int) prog =
  let* res, ck = S_core.read_prog ~n ~q ~pid ~ck in
  let bit =
    match res with Some v when Value.equal v one -> 1 | Some _ | None -> 0
  in
  ret (bit, ck)

(* ---------------- From a verifiable register ---------------- *)

(* SET = WRITE(1); SIGN(1). Returns (signed, the setter's updated local
   written-set); a correct setter's SIGN always succeeds. *)
let[@lnd.pure] set_verifiable_prog ~(written : Value.Set.t) :
    (V_core.reg, bool * Value.Set.t) prog =
  let* () = V_core.write_prog one in
  let written = Value.Set.add one written in
  let* signed = V_core.sign_prog ~written one in
  ret (signed, written)

let[@lnd.pure] test_verifiable_prog ~n ~(q : Quorum.t) ~pid ~ck :
    (V_core.reg, int * int) prog =
  let* ok, ck = V_core.verify_prog ~n ~q ~pid ~ck one in
  ret ((if ok then 1 else 0), ck)
