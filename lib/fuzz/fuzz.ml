(* Scenario fuzzer: a generator of workload plans. A seed derives a
   random Byzantine scenario, and the scenario a Lnd_parallel.Diff work
   plus the named lnd_byz strategy each Byzantine pid runs. The plan
   runs on the sim driver (Diff.system) to quiescence, and the system's
   own verdict judges it: no correct fiber failed, then the protocol's
   judge (Diff.check_*_history) — the observational monitors (relay /
   uniqueness / validity / unforgeability) plus full Byzantine
   linearizability when the history is small enough for the exhaustive
   checker.

   One seed = one fully deterministic scenario (size, adversary strategy,
   reader programs, schedule), so any failure is replayable from its seed
   alone. Used by the test suite and by `lnd_cli fuzz`. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Diff = Lnd_parallel.Diff
module Byz_script = Lnd_byz.Byz_script

type target = Verifiable | Sticky

type adversary =
  | No_adversary
  | Crash (* Byzantine processes take no steps *)
  | Denying_writer
  | Equivocating_writer
  | Sign_without_write (* verifiable only *)
  | False_witnesses
  | Naysayers
  | Flipfloppers
  | Garbage
  | Stale_replayers
  | Selective (* verifiable only *)

let adversary_name = function
  | No_adversary -> "none"
  | Crash -> "crash"
  | Denying_writer -> "denying-writer"
  | Equivocating_writer -> "equivocating-writer"
  | Sign_without_write -> "sign-without-write"
  | False_witnesses -> "false-witnesses"
  | Naysayers -> "naysayers"
  | Flipfloppers -> "flipfloppers"
  | Garbage -> "garbage"
  | Stale_replayers -> "stale-replayers"
  | Selective -> "selective"

type scenario = {
  seed : int;
  target : target;
  n : int;
  f : int;
  adversary : adversary;
  reader_ops : int; (* operations per correct reader *)
  writer_values : int; (* values the correct writer writes/signs *)
}

let pp_scenario fmt s =
  Format.fprintf fmt "seed=%d %s n=%d f=%d adversary=%s reader_ops=%d" s.seed
    (match s.target with Verifiable -> "verifiable" | Sticky -> "sticky")
    s.n s.f (adversary_name s.adversary) s.reader_ops

(* Derive a scenario deterministically from a seed. *)
let generate (seed : int) : scenario =
  let rng = Rng.create (seed * 7919) in
  let target = if Rng.bool rng then Verifiable else Sticky in
  let f = 1 + Rng.int rng 2 in
  let n = (3 * f) + 1 + Rng.int rng 2 in
  let adversary =
    let all =
      match target with
      | Verifiable ->
          [
            No_adversary; Crash; Denying_writer; Equivocating_writer;
            Sign_without_write; False_witnesses; Naysayers; Flipfloppers;
            Garbage; Stale_replayers; Selective;
          ]
      | Sticky ->
          [
            No_adversary; Crash; Denying_writer; Equivocating_writer;
            False_witnesses; Naysayers; Flipfloppers; Garbage;
            Stale_replayers;
          ]
    in
    Rng.pick rng all
  in
  {
    seed;
    target;
    n;
    f;
    adversary;
    reader_ops = 1 + Rng.int rng 2;
    writer_values = 1 + Rng.int rng 2;
  }

type report = {
  scenario : scenario;
  steps : int;
  operations : int;
  checked_linearizability : bool;
}

type outcome = (report, string) result

(* Which pids are Byzantine for this scenario. *)
let byzantine_pids (s : scenario) : int list =
  match s.adversary with
  | No_adversary -> []
  | Denying_writer | Equivocating_writer | Sign_without_write -> [ 0 ]
  | Crash | False_witnesses | Naysayers | Flipfloppers | Garbage
  | Stale_replayers | Selective ->
      List.init s.f (fun i -> s.n - 1 - i)

(* The scenario's work and each Byzantine pid's strategy (crashed pids
   have none). The work carries no genomes: its adversaries are the
   strategies beside it. What is random comes from the scenario's second
   RNG, in this order: the sticky equivocating writer's flip round, then
   each correct verifiable reader's operations, by pid. The sticky
   writer writes once; the verifiable one writes and signs
   [writer_values] values. *)
let workload (s : scenario) : Diff.work * (int * Byz_script.strategy) list =
  let rng = Rng.create ((s.seed * 31) + 17) in
  let byz = byzantine_pids s in
  let sticky = s.target = Sticky in
  let each strategy = List.map (fun pid -> (pid, strategy)) byz in
  let scripts =
    match s.adversary with
    | No_adversary | Crash -> []
    | Denying_writer ->
        each
          (Byz_script.Denying_writer
             { v = "a"; deny_after = (if sticky then 3 else 2) })
    | Equivocating_writer ->
        each
          (Byz_script.Equivocating_writer
             {
               va = "a";
               vb = "b";
               flip_after = (if sticky then 1 + Rng.int rng 4 else 1);
             })
    | Sign_without_write -> each (Byz_script.Sign_without_write "a")
    | False_witnesses -> each (Byz_script.False_witness "x")
    | Naysayers -> each Byz_script.Naysayer
    | Flipfloppers -> each (Byz_script.Flipflop "a")
    | Garbage -> each Byz_script.Garbage
    | Stale_replayers -> each Byz_script.Stale_replayer
    | Selective -> each (Byz_script.Selective "a")
  in
  let item () =
    if sticky then Diff.I_read
    else
      let v = Rng.pick_arr rng Diff.value_pool in
      if Rng.int rng 4 = 0 then Diff.I_read else Diff.I_verify v
  in
  let programs =
    List.filter_map
      (fun pid ->
        if List.mem pid byz then None
        else Some (pid, List.init s.reader_ops (fun _ -> item ())))
      (List.init (s.n - 1) succ)
  in
  ( {
      Diff.seed = s.seed;
      proto = (if sticky then Diff.Sticky else Diff.Verifiable);
      n = s.n;
      f = s.f;
      tos_verifiable = false;
      scripts = [];
      script_value = Value.v0;
      writes = (if sticky then 1 else s.writer_values);
      programs;
    },
    scripts )

let run (s : scenario) : outcome =
  let w, scripts = workload s in
  let sys =
    Diff.system
      (Policy.random ~seed:(s.seed + 1))
      (Diff.plan w ~scripts ~byzantine:(byzantine_pids s) ~broken:false)
  in
  Result.map
    (fun checked ->
      {
        scenario = s;
        steps = Sched.steps sys.Diff.sched;
        operations = sys.Diff.ops ();
        checked_linearizability = checked;
      })
    (Diff.quiesce sys)

let run_seed (seed : int) : outcome = run (generate seed)
