(* Algorithm 2 — signature-free SWMR sticky register, writable by p0 (the
   paper's p1) and readable by p1..p(n-1), for n >= 3f + 1.

   Register layout (declared once, in Sticky_core.layout):
     E_i    SWMR, owner p_i: "echo" register  (init ⊥)
     R_i    SWMR, owner p_i: "witness" register (init ⊥)
     R_jk   SWSR, owner p_j, reader p_k (k >= 1): ⟨witnessed value or ⊥,
            timestamp⟩
     C_k    SWMR, owner p_k (k >= 1): round counter

   Once any correct process reads v ≠ ⊥, every later read returns v, even
   if the writer is Byzantine (Observation 18). Correct processes must run
   [help] in the background.

   The protocol itself lives in Sticky_core as pure state-machine
   programs; this module allocates the core's layout through a cell
   allocator and drives those programs on the deterministic simulator
   (Lnd_runtime.Drive), emitting the Obs spans around them. *)

open Lnd_support
open Lnd_runtime
module Obs = Lnd_obs.Obs

type config = { n : int; f : int }

let[@lnd.pure] check_config { n; f } =
  if f < 0 || n < 2 then invalid_arg "Sticky: need n >= 2, f >= 0"

type regs = { cfg : config; q : Quorum.t; cell : Sticky_core.reg -> Cell.t }

(* Allocate the core's layout through an arbitrary cell allocator: the
   shared-memory one (the base model) or an emulated one (Section 9).
   [Quorum.make_relaxed]: the Section 8 experiments instantiate the
   algorithm outside its safe zone (n <= 3f) on purpose. *)
let alloc_with (mk : Cell.allocator) (cfg : config) : regs =
  check_config cfg;
  let q = Quorum.make_relaxed ~n:cfg.n ~f:cfg.f in
  { cfg; q; cell = Sticky_core.layout ~n:cfg.n mk }

let alloc space (cfg : config) : regs = alloc_with (Cell.shm_allocator space) cfg

(* ---------------- Writer (p0): WRITE(v), lines 1-6 ---------------- *)

type writer = { w_regs : regs }

let writer (rg : regs) : writer = { w_regs = rg }

let write (w : writer) (v : Value.t) : unit =
  let rg = w.w_regs in
  let sp =
    if Obs.enabled () then Obs.span_open ~name:"WRITE" ~arg:v () else 0
  in
  Drive.run ~cell:rg.cell (Sticky_core.write_prog ~n:rg.cfg.n ~q:rg.q v);
  if Obs.enabled () then Obs.span_close ~result:"done" ~name:"WRITE" sp

(* ---------------- Readers: READ(), lines 7-22 ---------------- *)

type reader = { rd_regs : regs; rd_pid : int; mutable ck : int }

let reader (rg : regs) ~pid : reader =
  if pid <= 0 || pid >= rg.cfg.n then invalid_arg "Sticky.reader: bad pid";
  { rd_regs = rg; rd_pid = pid; ck = 0 }

let read (rd : reader) : Value.t option =
  let rg = rd.rd_regs in
  let sp = if Obs.enabled () then Obs.span_open ~name:"READ" () else 0 in
  let result, ck =
    Drive.run ~cell:rg.cell
      (Sticky_core.read_prog ~n:rg.cfg.n ~q:rg.q ~pid:rd.rd_pid ~ck:rd.ck)
  in
  rd.ck <- ck;
  if Obs.enabled () then
    Obs.span_close
      ~result:(match result with None -> "⊥" | Some v -> "v:" ^ v)
      ~name:"READ" sp;
  result

(* ---------------- Help() — lines 23-40 ---------------- *)

let help (rg : regs) ~pid : unit =
  Drive.run ~on_note:(Drive.help_note ()) ~cell:rg.cell
    (Sticky_core.help_prog ~n:rg.cfg.n ~q:rg.q ~pid)
