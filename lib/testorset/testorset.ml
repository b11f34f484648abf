(* Test-or-set (Definition 20) implemented from a sticky register and from
   a verifiable register — the two constructions of Observation 25.

   - From a sticky register R: SET = WRITE(1); TEST = READ, returning 1
     iff the read returns 1.
   - From a verifiable register R (v0 = 0): SET = WRITE(1); SIGN(1);
     TEST = VERIFY(1), returning 1 iff the verify returns true.

   This is the sim-only wrapper the tests, examples and benchmark
   tables use: it drives the register through the Sticky/Verifiable sim
   drivers, so a trace nests the register's WRITE/SIGN/READ/VERIFY spans
   inside each SET/TEST span. The differential suite and the model
   checker run Testorset_core's SET and TEST programs through the
   workload plan instead (Lnd_parallel.Diff), with one span per
   operation on both drivers; the register accesses are the same. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module T = Lnd_history.Spec.Testorset_spec
module Obs = Lnd_obs.Obs

let one : Value.t = "1"

type impl = Sticky_based | Verifiable_based

type backend =
  | B_sticky of Lnd_sticky.Sticky.regs * Lnd_sticky.Sticky.writer
      * Lnd_sticky.Sticky.reader option array
  | B_verifiable of Lnd_verifiable.Verifiable.regs
      * Lnd_verifiable.Verifiable.writer
      * Lnd_verifiable.Verifiable.reader option array

type t = {
  n : int;
  f : int;
  space : Space.t;
  sched : Sched.t;
  backend : backend;
  history : (T.op, T.res) Lnd_history.History.t;
  correct : bool array;
}

let make ?(policy : Policy.t option) ?(byzantine : int list = []) ~impl ~n ~f
    () : t =
  let space = Space.create ~n in
  let choose =
    match policy with Some p -> p | None -> Policy.random ~seed:42
  in
  let sched = Sched.create ~space ~choose in
  let correct = Array.make n true in
  List.iter (fun pid -> correct.(pid) <- false) byzantine;
  let backend =
    match impl with
    | Sticky_based ->
        let regs = Lnd_sticky.Sticky.alloc space { Lnd_sticky.Sticky.n; f } in
        let readers =
          Array.init n (fun pid ->
              if pid = 0 then None
              else Some (Lnd_sticky.Sticky.reader regs ~pid))
        in
        for pid = 0 to n - 1 do
          if correct.(pid) then
            ignore
              (Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
                 ~daemon:true (fun () -> Lnd_sticky.Sticky.help regs ~pid))
        done;
        B_sticky (regs, Lnd_sticky.Sticky.writer regs, readers)
    | Verifiable_based ->
        let regs =
          Lnd_verifiable.Verifiable.alloc space
            { Lnd_verifiable.Verifiable.n; f }
        in
        let readers =
          Array.init n (fun pid ->
              if pid = 0 then None
              else Some (Lnd_verifiable.Verifiable.reader regs ~pid))
        in
        for pid = 0 to n - 1 do
          if correct.(pid) then
            ignore
              (Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
                 ~daemon:true (fun () -> Lnd_verifiable.Verifiable.help regs ~pid))
        done;
        B_verifiable (regs, Lnd_verifiable.Verifiable.writer regs, readers)
  in
  { n; f; space; sched; backend; history = Lnd_history.History.create (); correct }

(* SET, by the setter (pid 0); recorded. The SET span brackets the
   recorded [inv, ret] interval (the underlying WRITE/SIGN spans nest
   inside it), so a trace folded by Trace_replay.testorset_history
   carries no precedence pair the direct history lacks. *)
let op_set (t : t) : unit =
  let sp = if Obs.enabled () then Obs.span_open ~name:"SET" () else 0 in
  Lnd_history.History.record t.history ~pid:0 T.Set (fun () ->
      (match t.backend with
      | B_sticky (_, w, _) -> Lnd_sticky.Sticky.write w one
      | B_verifiable (_, w, _) ->
          Lnd_verifiable.Verifiable.write w one;
          let signed = Lnd_verifiable.Verifiable.sign w one in
          assert signed);
      T.Done)
  |> ignore;
  if Obs.enabled () then Obs.span_close ~result:"done" ~name:"SET" sp

(* TEST, by any tester (pid >= 1); recorded. Returns 0 or 1. *)
let op_test (t : t) ~pid : int =
  let sp = if Obs.enabled () then Obs.span_open ~name:"TEST" () else 0 in
  let bit =
    match
      Lnd_history.History.record t.history ~pid T.Test (fun () ->
          let bit =
            match t.backend with
            | B_sticky (_, _, readers) -> (
                let rd = Option.get readers.(pid) in
                match Lnd_sticky.Sticky.read rd with
                | Some v when Value.equal v one -> 1
                | Some _ | None -> 0)
            | B_verifiable (_, _, readers) ->
                let rd = Option.get readers.(pid) in
                if Lnd_verifiable.Verifiable.verify rd one then 1 else 0
          in
          T.Bit bit)
    with
    | T.Bit b -> b
    | T.Done -> assert false
  in
  if Obs.enabled () then
    Obs.span_close ~result:(string_of_int bit) ~name:"TEST" sp;
  bit

let client t ~pid ~name body : Sched.fiber = Sched.spawn t.sched ~pid ~name body
let run ?max_steps ?until t = Sched.run ?max_steps ?until t.sched

let byz_linearizable ?node_budget t : bool =
  Lnd_history.Byzlin.testorset ?node_budget ~setter:0
    ~correct:(fun pid -> t.correct.(pid))
    t.history
