(* Adversary synthesis: guided search over the joint space of schedules
   and Byzantine scripts.

   DPOR answers "does ANY schedule of THIS adversary violate"; the
   synthesiser inverts the quantifier and searches for the adversary
   too. A candidate is (seed batch, script genomes); its fitness is
   derived from the last run's event trace — completed correct reads
   that returned ⊥ dominate (each is one classification away from a
   stickiness violation), with the worst observed READ span latency as
   a tie-breaker (contention means the adversary is interfering).
   Hill-climbing mutates either one seed (move through schedule space)
   or one genome gene (move through adversary space, via
   Byz_script.mutate) and keeps the candidate iff fitness does not
   drop. The moment any run's check raises, the counterexample is
   packaged as a Scenario expecting a violation — ready to save under
   test/fixtures/scenarios/ and replay forever. *)

open Lnd_support
module Explore = Lnd_runtime.Explore
module Obs = Lnd_obs.Obs
module Metrics = Lnd_obs.Metrics
module Byz_script = Lnd_byz.Byz_script

type outcome = {
  found : Scenario.t option; (* the violating scenario, if any *)
  evals : int; (* schedules executed *)
  rounds_used : int;
  best_fitness : int;
}

(* Fitness of one quiescent run, from its event trace. *)
let fitness_of_events (evs : Obs.event list) : int =
  let bots =
    List.fold_left
      (fun acc (e : Obs.event) ->
        match e.Obs.kind with
        | Obs.Span_close { name = "READ"; result = Some "⊥"; _ }
        | Obs.Span_close { name = "TEST"; result = Some "0"; _ } ->
            acc + 1
        | _ -> acc)
      0 evs
  in
  let worst_read =
    match Metrics.histogram (Metrics.of_events evs) "span.READ.steps" with
    | Some h -> h.Metrics.max
    | None -> 0
  in
  (bots * 1000) + worst_read

type cand = { cd_seeds : int list; cd_scripts : (int * int list) list }

let mutate_cand (rng : Rng.t) (base : Mcheck.config) (c : cand) : cand =
  if c.cd_scripts = [] || Rng.bool rng then
    (* move in schedule space: replace one seed *)
    let arr = Array.of_list c.cd_seeds in
    let i = Rng.int rng (Array.length arr) in
    arr.(i) <- Rng.int rng 1_000_000;
    { c with cd_seeds = Array.to_list arr }
  else begin
    (* move in adversary space: mutate one genome *)
    let arr = Array.of_list c.cd_scripts in
    let i = Rng.int rng (Array.length arr) in
    let pid, genome = arr.(i) in
    let sc =
      Byz_script.mutate rng
        (Byz_script.make ~pid ~genome ~value:base.Mcheck.script_value)
    in
    arr.(i) <- (pid, Byz_script.genome sc);
    { c with cd_scripts = Array.to_list arr }
  end

(* Run every seed of the candidate; the best per-run fitness, or the
   counterexample if any check raised. *)
let eval ~max_steps (base : Mcheck.config) (c : cand) :
    [ `Fitness of int | `Violation of Mcheck.config * Explore.counterexample ]
    =
  let cfg = { base with Mcheck.scripts = c.cd_scripts; audit = true } in
  let i = Mcheck.instance cfg in
  Fun.protect ~finally:i.Mcheck.teardown (fun () ->
      let best = ref 0 in
      try
        List.iter
          (fun seed ->
            ignore
              (Explore.swarm ~make:i.Mcheck.make ~check:i.Mcheck.check
                 ~max_steps ~note:(Mcheck.note cfg) ~seeds:[ seed ] ());
            let f = fitness_of_events (i.Mcheck.last_events ()) in
            if f > !best then best := f)
          c.cd_seeds;
        `Fitness !best
      with Explore.Violation cx -> `Violation (cfg, cx))

let hillclimb ?(rounds = 50) ?(batch = 6) ?(max_steps = 20_000) ~seed ~name
    (base : Mcheck.config) : outcome =
  if rounds < 1 then invalid_arg "Synth.hillclimb: rounds must be positive";
  if batch < 1 then invalid_arg "Synth.hillclimb: batch must be positive";
  let rng = Rng.create seed in
  let evals = ref 0 in
  let current =
    ref
      {
        cd_seeds = List.init batch (fun _ -> Rng.int rng 1_000_000);
        cd_scripts = base.Mcheck.scripts;
      }
  in
  let best_fit = ref (-1) in
  let found = ref None in
  let round = ref 0 in
  while !found = None && !round < rounds do
    incr round;
    let cand =
      if !round = 1 then !current else mutate_cand rng base !current
    in
    evals := !evals + List.length cand.cd_seeds;
    match eval ~max_steps base cand with
    | `Violation (cfg, cx) -> found := Some (Scenario.of_violation ~name cfg cx)
    | `Fitness f ->
        if f >= !best_fit then begin
          best_fit := f;
          current := cand
        end
  done;
  {
    found = !found;
    evals = !evals;
    rounds_used = !round;
    best_fitness = !best_fit;
  }
