(* Algorithm 1 — signature-free SWMR multivalued verifiable register,
   writable by process p0 (the paper's p1) and readable by p1..p(n-1),
   for n >= 3f + 1.

   Register layout (declared once, in Verifiable_core.layout):
     R*     SWMR, owner p0, holds the current value (init v0)
     R_i    SWMR, owner p_i, set of values p_i witnesses
     R_jk   SWSR, owner p_j, reader p_k (k >= 1), holds ⟨witness set,
            timestamp⟩
     C_k    SWMR, owner p_k (k >= 1), round counter

   Every correct process must run [help] as a background fiber; operations
   are called from the owner process's operation fiber. All register reads
   decode defensively: ill-typed contents written by a Byzantine owner are
   treated as the register's initial value.

   The protocol itself lives in Verifiable_core as pure state-machine
   programs; this module allocates the core's layout through a cell
   allocator and drives those programs on the deterministic simulator
   (Lnd_runtime.Drive), emitting the Obs spans around them. *)

open Lnd_support
open Lnd_runtime
module Obs = Lnd_obs.Obs

type config = { n : int; f : int }

let[@lnd.pure] check_config { n; f } =
  if f < 0 || n < 2 then invalid_arg "Verifiable: need n >= 2, f >= 0"

(* [alloc] does not insist on n > 3f: the optimality experiments of
   Section 8 deliberately instantiate the algorithm outside its safe zone
   (n <= 3f) to exhibit the impossibility of Theorem 23. *)

type regs = {
  cfg : config;
  q : Quorum.t;
  cell : Verifiable_core.reg -> Cell.t;
}

module VSet = Value.Set

(* Allocate the core's layout through an arbitrary cell allocator: the
   shared-memory one (the base model) or an emulated one (Section 9). *)
let alloc_with (mk : Cell.allocator) (cfg : config) : regs =
  check_config cfg;
  let q = Quorum.make_relaxed ~n:cfg.n ~f:cfg.f in
  { cfg; q; cell = Verifiable_core.layout ~n:cfg.n mk }

let alloc space (cfg : config) : regs = alloc_with (Cell.shm_allocator space) cfg

(* ---------------- Writer (p0) ---------------- *)

type writer = { w_regs : regs; mutable written : VSet.t (* the local set r* *) }

let writer (rg : regs) : writer = { w_regs = rg; written = VSet.empty }

(* WRITE(v): lines 1-3. *)
let write (w : writer) (v : Value.t) : unit =
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"WRITE" ~arg:v () else 0
  in
  Drive.run ~cell:w.w_regs.cell (Verifiable_core.write_prog v);
  w.written <- VSet.add v w.written;
  if Obs.enabled () then Obs.span_close ~result:"done" ~name:"WRITE" sp

(* SIGN(v): lines 4-8. Returns true for SUCCESS, false for FAIL. *)
let sign (w : writer) (v : Value.t) : bool =
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"SIGN" ~arg:v () else 0
  in
  let res =
    Drive.run ~cell:w.w_regs.cell
      (Verifiable_core.sign_prog ~written:w.written v)
  in
  if Obs.enabled () then
    Obs.span_close ~result:(string_of_bool res) ~name:"SIGN" sp;
  res

(* ---------------- Readers (p1 .. p(n-1)) ---------------- *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }

let reader (rg : regs) ~pid : reader =
  if pid <= 0 || pid >= rg.cfg.n then invalid_arg "Verifiable.reader: bad pid";
  { rd_regs = rg; rd_pid = pid; ck = 0 }

(* READ(): lines 9-10. *)
let read (rd : reader) : Value.t =
  let sp = if Obs.enabled () then Obs.span_open ~name:"READ" () else 0 in
  let v = Drive.run ~cell:rd.rd_regs.cell Verifiable_core.read_prog in
  if Obs.enabled () then Obs.span_close ~result:("v:" ^ v) ~name:"READ" sp;
  v

(* VERIFY(v): lines 11-24. Terminates for any correct reader when n > 3f
   (Theorem 40); outside that bound it may loop, so callers running
   deliberately-broken configurations should bound scheduler steps. *)
let verify (rd : reader) (v : Value.t) : bool =
  let rg = rd.rd_regs in
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"VERIFY" ~arg:v () else 0
  in
  let res, ck =
    Drive.run ~cell:rg.cell
      (Verifiable_core.verify_prog ~n:rg.cfg.n ~q:rg.q ~pid:rd.rd_pid
         ~ck:rd.ck v)
  in
  rd.ck <- ck;
  if Obs.enabled () then
    Obs.span_close ~result:(string_of_bool res) ~name:"VERIFY" sp;
  res

(* ---------------- Help() — lines 25-36 ---------------- *)

(* Run forever as a daemon fiber of process [pid]; assists all ongoing
   VERIFY operations by maintaining the witness set R_pid and answering
   askers through R_{pid,k}. *)
let help (rg : regs) ~pid : unit =
  (* one HELP span per round actually serving askers; the core marks
     those rounds with Serving/Served notes *)
  let sp = ref 0 in
  let on_note : Machine.note -> unit = function
    | Machine.Serving askers ->
        if Obs.enabled () then
          sp :=
            Obs.span_open ~name:"HELP"
              ~arg:(String.concat "," (List.map string_of_int askers))
              ()
    | Machine.Served ->
        if Obs.enabled () then Obs.span_close ~result:"done" ~name:"HELP" !sp
  in
  Drive.run ~on_note ~cell:rg.cell
    (Verifiable_core.help_prog ~n:rg.cfg.n ~q:rg.q ~pid)
