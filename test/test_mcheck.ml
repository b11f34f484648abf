(* The model-checking harness end to end: DPOR exhausts the paper's
   smallest configuration (under park-on-yield + preemption bounding),
   finds the weakened-quorum stickiness violation, beats the naive DFS
   on the same config, and every counterexample survives the full
   serialise → parse → replay loop — including the scenario fixtures
   committed under test/fixtures/scenarios/, which the suite re-runs on
   every build. Plus the access count the harness reads off the
   Space's counters, and the adversary synthesiser mutating an honest
   script into a violating one. *)

open Lnd_shm
module Explore = Lnd_runtime.Explore
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module M = Lnd_fuzz.Mcheck
module Scenario = Lnd_fuzz.Scenario
module Synth = Lnd_fuzz.Synth
module Diff = Lnd_parallel.Diff
module Byz_script = Lnd_byz.Byz_script

(* ---------------- Exhaustive coverage of the small configs ----------- *)

(* The explorer's exact results. Every count is pinned: a change to the
   explorer's bookkeeping must explore the same schedules in the same
   order, so it must reproduce each of them. *)
let result =
  Alcotest.testable
    (fun fmt (r : Explore.result) ->
      Format.fprintf fmt
        "runs %d / pruned %d / blocked %d / races %d / exhausted %b / max \
         depth %d"
        r.Explore.runs r.Explore.pruned r.Explore.blocked r.Explore.races
        r.Explore.exhausted r.Explore.max_depth)
    ( = )

let pinned ~runs ~pruned ~blocked ~races ~exhausted ~max_depth =
  { Explore.runs; pruned; blocked; races; exhausted; max_depth }

let test_dpor_exhausts_default () =
  let r = M.explore ~max_steps:600 ~max_preempts:0 M.default in
  Alcotest.check result "sticky, bound 0"
    (pinned ~runs:260 ~pruned:0 ~blocked:95 ~races:6_763 ~exhausted:true
       ~max_depth:335)
    r

let test_dpor_exhausts_verifiable () =
  let cfg = { M.default with M.model = M.Verifiable; reads = 2 } in
  let r = M.explore ~max_steps:600 ~max_preempts:0 cfg in
  Alcotest.check result "verifiable with two reads, bound 0"
    (pinned ~runs:2_306 ~pruned:0 ~blocked:564 ~races:30_340 ~exhausted:true
       ~max_depth:237)
    r

let test_dpor_exhausts_testorset () =
  let cfg = { M.default with M.model = M.Testorset } in
  let r = M.explore ~max_steps:600 ~max_preempts:0 cfg in
  Alcotest.check result "test-or-set, bound 0"
    (pinned ~runs:260 ~pruned:0 ~blocked:95 ~races:6_763 ~exhausted:true
       ~max_depth:335)
    r

(* The two other paths of the DPOR choice, on a budget: the
   preemption-bounded one past bound 0, and the unbounded rotation.
   Under a bound, a choice at node d costs the previous node's count,
   plus one for every fiber but the previous one when that one is still
   enabled after a real access. Only from bound 2 on does that "+1" fall
   on a node whose count is already nonzero, and each model runs out of
   budget at different depths: each pin fixes which choices were
   affordable, node by node, over 2,000 schedules. *)
let bounded ~bound cfg =
  M.explore ~max_steps:600 ~max_runs:2_000 ~max_preempts:bound cfg

let verifiable2 = { M.default with M.model = M.Verifiable; reads = 2 }

let test_dpor_pins_bound_1 () =
  Alcotest.check result "sticky, bound 1, 2,000 runs"
    (pinned ~runs:1_708 ~pruned:0 ~blocked:292 ~races:27_136 ~exhausted:false
       ~max_depth:383)
    (bounded ~bound:1 M.default);
  Alcotest.check result "verifiable with two reads, bound 1, 2,000 runs"
    (pinned ~runs:1_955 ~pruned:0 ~blocked:45 ~races:14_607 ~exhausted:false
       ~max_depth:252)
    (bounded ~bound:1 verifiable2);
  Alcotest.check result "test-or-set, bound 1, 2,000 runs"
    (pinned ~runs:1_708 ~pruned:0 ~blocked:292 ~races:27_136 ~exhausted:false
       ~max_depth:383)
    (bounded ~bound:1 { M.default with M.model = M.Testorset })

let test_dpor_pins_bound_2 () =
  Alcotest.check result "sticky, bound 2, 2,000 runs"
    (pinned ~runs:1_745 ~pruned:0 ~blocked:255 ~races:13_685 ~exhausted:false
       ~max_depth:419)
    (bounded ~bound:2 M.default);
  Alcotest.check result "verifiable with two reads, bound 2, 2,000 runs"
    (pinned ~runs:1_994 ~pruned:0 ~blocked:6 ~races:10_153 ~exhausted:false
       ~max_depth:217)
    (bounded ~bound:2 verifiable2)

let test_dpor_pins_unbounded () =
  let r = M.explore ~max_steps:600 ~max_runs:2_000 M.default in
  Alcotest.check result "sticky, unbounded, 2,000 runs"
    (pinned ~runs:1_414 ~pruned:122 ~blocked:464 ~races:4_870
       ~exhausted:false ~max_depth:257)
    r

let test_dpor_beats_naive () =
  let budget = 1_000 in
  let naive =
    M.explore ~mode:`Naive ~max_steps:600 ~max_runs:budget M.default
  in
  Alcotest.(check bool) "naive DFS blows the budget" false
    naive.Explore.exhausted;
  let dpor =
    M.explore ~max_steps:600 ~max_runs:budget ~max_preempts:0 M.default
  in
  Alcotest.(check bool) "dpor exhausts within the same budget" true
    dpor.Explore.exhausted;
  Alcotest.(check bool) "dpor needs fewer runs" true
    (dpor.Explore.runs + dpor.Explore.blocked < budget)

(* ---------------- The weakened-quorum violation ---------------------- *)

let find_weakened_cx () =
  match
    M.explore ~max_steps:600 ~max_runs:50_000 ~max_preempts:1 M.weakened
  with
  | (_ : Explore.result) ->
      Alcotest.fail "expected a violation on the weakened config"
  | exception Explore.Violation cx -> cx

let test_dpor_finds_weakened_violation () =
  let cx = find_weakened_cx () in
  (match cx.Explore.cx_exn with
  | M.Property_violated _ -> ()
  | e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e));
  match cx.Explore.cx_schedule with
  | Explore.Fids _ -> ()
  | s -> Alcotest.failf "want a Fids trail, got %a" Explore.pp_schedule s

let test_weakened_cx_replays () =
  let cx = find_weakened_cx () in
  match M.replay M.weakened cx.Explore.cx_schedule with
  | Error (M.Property_violated _) -> ()
  | Error e ->
      Alcotest.failf "replay raised something else: %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "replay did not reproduce the violation"

(* A fid trail must be used up exactly. The default config's first DPOR
   trail replays to Ok; with fids appended it outlives the quiescent
   run, and under a budget shorter than it the run stops with fids
   left: both are divergences, not verdicts. *)
let first_trail () =
  let i = M.instance M.default in
  match
    Fun.protect ~finally:i.M.teardown (fun () ->
        Explore.dpor ~make:i.M.make
          ~check:(fun _ -> failwith "first run")
          ~max_steps:600 ~max_preempts:0 ())
  with
  | (_ : Explore.result) -> Alcotest.fail "the check did not run"
  | exception Explore.Violation { cx_schedule = Explore.Fids fids; _ } -> fids
  | exception Explore.Violation _ -> Alcotest.fail "want a Fids trail"

let test_trail_replays_exactly () =
  let fids = first_trail () in
  Alcotest.(check int) "the first trail" 321 (List.length fids);
  match M.replay M.default (Explore.Fids fids) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay raised %s" (Printexc.to_string e)

let diverges what f =
  match f () with
  | (_ : (unit, exn) result) -> Alcotest.failf "%s: expected Replay_diverged" what
  | exception Explore.Replay_diverged _ -> ()

let test_trail_outlives_quiescence () =
  let fids = first_trail () in
  diverges "three fids past quiescence" (fun () ->
      M.replay M.default (Explore.Fids (fids @ [ 0; 1; 2 ])))

let test_trail_outlives_budget () =
  let fids = first_trail () in
  diverges "a 100-step budget on a 321-fid trail" (fun () ->
      M.replay ~max_steps:100 M.default (Explore.Fids fids))

(* ---------------- Scenario round-trip -------------------------------- *)

let test_scenario_roundtrip () =
  let cx = find_weakened_cx () in
  let sc = Scenario.of_violation ~name:"rt" M.weakened cx in
  let text = Scenario.to_string sc in
  (match Scenario.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sc2 ->
      Alcotest.(check string) "print/parse/print fixpoint" text
        (Scenario.to_string sc2);
      Alcotest.(check string) "config survives" (M.note sc.Scenario.sc_cfg)
        (M.note sc2.Scenario.sc_cfg));
  match Scenario.run sc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scenario run: %s" e

let test_scenario_rejects_garbage () =
  (match Scenario.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty input");
  (match Scenario.of_string "lnd-scenario v0\nname: x\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad magic line");
  (* well-formed, but no instance can run the config: a pid out of
     range, a script for an out-of-range pid, a reader out of range,
     n < 2 *)
  List.iter
    (fun (what, fields) ->
      match
        Scenario.of_string
          ("lnd-scenario v1\nname: x\nexpect: violation\nschedule: seed 1\n"
         ^ fields)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" what)
    [
      ("a byzantine pid out of range", "byzantine: 2,3,7\n");
      ("a script for pid 8 of 4", "byzantine: 2,3,8\nscript: 8 = 1\n");
      ("a reader out of range", "readers: 1,9\n");
      ("n = 1", "n: 1\n");
    ];
  match
    Scenario.of_string
      "lnd-scenario v1\nname: x\nexpect: violation\nfrobnicate: 3\nschedule: seed 1\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown key"

(* ---------------- Committed fixtures --------------------------------- *)

let test_fixture_scenarios_replay () =
  let dir = Filename.concat "fixtures" "scenarios" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort compare
  in
  Alcotest.(check bool) "at least two committed scenarios" true
    (List.length files >= 2);
  List.iter
    (fun file ->
      match Scenario.load (Filename.concat dir file) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" file e
      | Ok sc -> (
          match Scenario.run sc with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" file e))
    files

(* ---------------- Adversary synthesis -------------------------------- *)

(* Searches that cannot run are refused up front: a preemption bound the
   naive DFS would ignore, and a hill-climb of no round or of candidates
   of no schedule, which would evaluate nothing and report that nothing
   was found. *)
let test_searches_refuse_bounds_they_ignore () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: ran" what
    | exception Invalid_argument _ -> ()
  in
  raises "naive DFS with a preemption bound" (fun () ->
      ignore
        (M.explore ~mode:`Naive ~max_runs:1 ~max_preempts:0 M.default
          : Explore.result));
  List.iter
    (fun (what, rounds, batch) ->
      raises what (fun () ->
          ignore
            (Synth.hillclimb ~rounds ~batch ~seed:1 ~name:"x" M.weakened
              : Synth.outcome)))
    [ ("no round", 0, 6); ("negative rounds", -1, 6); ("no schedule", 50, 0) ]

let test_synth_finds_violating_adversary () =
  (* honest genomes: the hill-climb has to mutate the scripts (and/or
     the seeds) before any run can violate *)
  let honest =
    { M.weakened with M.scripts = [ (2, [ 2; 2 ]); (3, [ 2; 2 ]) ] }
  in
  let o = Synth.hillclimb ~seed:11 ~name:"synth-weakened" honest in
  match o.Synth.found with
  | None ->
      Alcotest.failf "no violation after %d rounds (%d evals)"
        o.Synth.rounds_used o.Synth.evals
  | Some sc -> (
      Alcotest.(check bool) "scripts were mutated" true
        (sc.Scenario.sc_cfg.M.scripts <> honest.M.scripts
        || sc.Scenario.sc_cfg.M.scripts <> M.weakened.M.scripts);
      match Scenario.run sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "synthesised scenario: %s" e)

(* ---------------- DPOR under every named strategy -------------------- *)

(* n = 4, f = 1, one reader (pid 1) running one operation — READ on the
   sticky register, VERIFY("a") on the verifiable one — and one named
   strategy: at pid 3, or at the writer, pid 0, for the writer
   strategies. The plan goes straight to Diff.system, with a make that
   journals the system it builds and hands it back for the explorer to
   rewind, as Mcheck.make does. Exhausting the bound-0 space with every
   run accepted by the judge checks Theorems 14 and 19 in every explored
   schedule against each attack, not only under random fuzzing. *)
let dpor_under ~proto ~item ~pid strategy =
  let w =
    {
      Diff.seed = 0;
      proto;
      n = 4;
      f = 1;
      tos_verifiable = false;
      scripts = [];
      script_value = "a";
      writes = 1;
      programs = [ (1, [ item ]) ];
    }
  in
  let plan =
    Diff.plan w ~scripts:[ (pid, strategy) ] ~byzantine:[ pid ] ~broken:false
  in
  let last = ref None in
  let make policy =
    match !last with
    | Some (s : Diff.system) when Sched.rewindable s.Diff.sched ->
        Sched.set_choose s.Diff.sched policy;
        s.Diff.sched
    | _ ->
        let s = Diff.system policy plan in
        Sched.journal s.Diff.sched;
        last := Some s;
        s.Diff.sched
  in
  let check _ =
    Option.iter
      (fun (s : Diff.system) ->
        match s.Diff.verdict () with
        | Ok _ -> ()
        | Error m -> raise (M.Property_violated m))
      !last
  in
  Explore.dpor ~make ~check ~max_steps:600 ~max_preempts:0 ()

(* (strategy, its pid, runs, blocked) per register, every run pinned:
   the strategies' register accesses fix the explored space. *)
let sticky_strategies =
  Byz_script.
    [
      (Naysayer, 3, 223, 352);
      (False_witness "x", 3, 217, 364);
      (Flipflop "a", 3, 276, 305);
      (Garbage, 3, 217, 357);
      (Stale_replayer, 3, 266, 237);
      (Denying_writer { v = "a"; deny_after = 3 }, 0, 54, 90);
      (Equivocating_writer { va = "a"; vb = "b"; flip_after = 2 }, 0, 52, 56);
    ]

let verifiable_strategies =
  Byz_script.
    [
      (Naysayer, 3, 3_019, 2_163);
      (False_witness "x", 3, 2_029, 1_687);
      (Flipflop "a", 3, 2_963, 847);
      (Garbage, 3, 1_012, 963);
      (Stale_replayer, 3, 1_981, 100);
      (Selective "a", 3, 215, 44);
      (Denying_writer { v = "a"; deny_after = 2 }, 0, 1_070, 25);
      (Equivocating_writer { va = "a"; vb = "b"; flip_after = 1 }, 0, 235, 29);
      (Sign_without_write "a", 0, 1_114, 25);
    ]

let test_dpor_named_strategies () =
  List.iter
    (fun (proto, item, strategies) ->
      List.iter
        (fun (s, pid, runs, blocked) ->
          let what =
            Printf.sprintf "%s under %s" (Diff.proto_name proto)
              (Byz_script.name ~pid s)
          in
          match dpor_under ~proto ~item ~pid s with
          | r ->
              Alcotest.(check bool) (what ^ ": exhausted") true
                r.Explore.exhausted;
              Alcotest.(check (pair int int))
                (what ^ ": runs, blocked") (runs, blocked)
                (r.Explore.runs, r.Explore.blocked)
          | exception Explore.Violation cx ->
              Alcotest.failf "%s: %a" what Explore.pp_counterexample cx)
        strategies)
    [
      (Diff.Sticky, Diff.I_read, sticky_strategies);
      (Diff.Verifiable, Diff.I_verify "a", verifiable_strategies);
    ]

(* ---------------- Access counting ------------------------------------ *)

(* [last_accesses] is the last run's Space read and write counters.
   [make] hands the same system back for the next run, still holding the
   last run's counts until the caller rewinds it. *)
let test_last_accesses_counts () =
  let i = M.instance M.default in
  Fun.protect ~finally:i.M.teardown (fun () ->
      Alcotest.(check int) "nothing before the first run" 0
        (i.M.last_accesses ());
      let sched = i.M.make (Policy.round_robin ()) in
      let space = Sched.space sched in
      ignore (Sched.run ~max_steps:10_000 sched);
      let st = Space.stats space in
      let counted = st.Space.reads + st.Space.writes in
      Alcotest.(check bool) "the run accessed registers" true (counted > 0);
      Alcotest.(check int) "last_accesses = reads + writes" counted
        (i.M.last_accesses ());
      let again = i.M.make (Policy.round_robin ()) in
      Alcotest.(check bool) "make hands the system back" true (again == sched);
      Alcotest.(check int) "with the last run's counts" counted
        (i.M.last_accesses ());
      Sched.rewind again 0;
      Alcotest.(check int) "a run rewound to step 0 starts from zero" 0
        (i.M.last_accesses ()))

let tests =
  [
    Alcotest.test_case "dpor exhausts the default sticky config" `Quick
      test_dpor_exhausts_default;
    Alcotest.test_case "dpor exhausts the verifiable config" `Quick
      test_dpor_exhausts_verifiable;
    Alcotest.test_case "dpor exhausts the test-or-set config" `Quick
      test_dpor_exhausts_testorset;
    Alcotest.test_case "dpor pins a budgeted run at preemption bound 1"
      `Quick test_dpor_pins_bound_1;
    Alcotest.test_case "dpor pins budgeted runs at preemption bound 2"
      `Quick test_dpor_pins_bound_2;
    Alcotest.test_case "dpor pins a budgeted unbounded run" `Quick
      test_dpor_pins_unbounded;
    Alcotest.test_case "dpor beats the naive DFS on the same budget" `Quick
      test_dpor_beats_naive;
    Alcotest.test_case "dpor finds the weakened-quorum violation" `Quick
      test_dpor_finds_weakened_violation;
    Alcotest.test_case "the counterexample replays deterministically" `Quick
      test_weakened_cx_replays;
    Alcotest.test_case "a fid trail replays when used up exactly" `Quick
      test_trail_replays_exactly;
    Alcotest.test_case "a fid trail that outlives quiescence diverges" `Quick
      test_trail_outlives_quiescence;
    Alcotest.test_case "a fid trail that outlives the step budget diverges"
      `Quick test_trail_outlives_budget;
    Alcotest.test_case "scenarios round-trip and re-violate" `Quick
      test_scenario_roundtrip;
    Alcotest.test_case "scenario parser rejects garbage" `Quick
      test_scenario_rejects_garbage;
    Alcotest.test_case "committed scenario fixtures replay" `Quick
      test_fixture_scenarios_replay;
    Alcotest.test_case "synthesis mutates an honest adversary into a violator"
      `Quick test_synth_finds_violating_adversary;
    Alcotest.test_case "searches refuse bounds they would ignore" `Quick
      test_searches_refuse_bounds_they_ignore;
    Alcotest.test_case "last_accesses reads the Space counters" `Quick
      test_last_accesses_counts;
    Alcotest.test_case "dpor exhausts n=4 f=1 under every named strategy"
      `Quick test_dpor_named_strategies;
  ]
