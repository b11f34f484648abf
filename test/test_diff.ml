(* Differential conformance between the two drivers of the pure protocol
   cores: the deterministic effects-based simulator (driver #1) and the
   OCaml 5 domains backend (driver #2).

   Three layers of evidence:
   - the sim driver's histories for the golden workloads are
     byte-identical to the committed pre-refactor baselines
     (fixtures/diff/golden_sim.txt), pinning the pure-core extraction to
     the old inlined implementations, schedule for schedule;
   - every (seed, protocol) workload is accepted by the monitors +
     Byzantine-linearizability checkers on BOTH backends — the domains
     interleavings are real, so agreement is judged through the spec,
     not byte-for-byte;
   - the deliberately broken cores (Parallel.run ~broken:true) are
     rejected, so a green suite is evidence, not vacuity. The broken
     seeds are chosen with few enough operations that the exhaustive
     checker always runs: rejection is schedule-independent.

   The committed counterexample scenarios also replay through the
   (pure-core) sim driver with their recorded verdicts intact, and both
   drivers enforce the model's ownership rules. *)

open Lnd_support
module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel
module Scenario = Lnd_fuzz.Scenario
module S_core = Lnd_sticky.Sticky_core
module Domains = Lnd_runtime.Domains
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Cell = Lnd_runtime.Cell
module Drive = Lnd_runtime.Drive
module Space = Lnd_shm.Space

let golden_path = "fixtures/diff/golden_sim.txt"

let test_golden_sim () =
  match Diff.check_golden golden_path with
  | [] -> ()
  | (i, e, g) :: rest ->
      Alcotest.failf
        "sim driver drifted from the pre-refactor golden baselines (%d \
         mismatching lines); first: line %d\n\
         expected: %s\n\
         got:      %s"
        (List.length rest + 1)
        i e g

let seeds =
  List.init Diff.golden_seed_count (fun i -> Diff.golden_seed_from + i)

let check_backend ~backend w = function
  | Ok () -> ()
  | Error m ->
      Alcotest.failf "%s driver rejected workload [%s]: %s" backend
        (Diff.describe w) m

(* One traced execution must tell the same story twice: the direct
   history (recorded by the driver) and the trace-derived history
   (operation spans folded back through Trace_replay) are judged by the
   same checkers, and op spans bracket the [inv, ret] intervals, so a
   direct Ok forces a trace Ok. The trace itself must be complete (no
   arena drops) and well-nested. *)
let check_parity ~backend w (r : Diff.run) (ti : Diff.trace_info) =
  check_backend ~backend w r.Diff.verdict;
  (match ti.Diff.t_verdict with
  | Ok () -> ()
  | Error m ->
      Alcotest.failf
        "%s trace-derived history rejected for [%s] (direct was accepted): %s"
        backend (Diff.describe w) m);
  (match ti.Diff.t_nesting with
  | None -> ()
  | Some m ->
      Alcotest.failf "%s trace ill-nested for [%s]: %s" backend
        (Diff.describe w) m);
  if ti.Diff.t_dropped > 0 then
    Alcotest.failf "%s trace dropped %d events for [%s]" backend
      ti.Diff.t_dropped (Diff.describe w);
  if ti.Diff.t_ops <> r.Diff.ops then
    Alcotest.failf
      "%s trace-derived history has %d ops, direct has %d, for [%s]" backend
      ti.Diff.t_ops r.Diff.ops (Diff.describe w)

(* The headline: the same seed-derived workloads — honest, Byzantine
   (scripted genomes) and mixed — through both drivers, every history
   accepted by the same spec-level checkers, and on each driver the
   trace-derived history agrees with the direct one. *)
let test_agreement proto () =
  List.iter
    (fun seed ->
      let w = Diff.generate ~proto seed in
      let s, st = Diff.sim_traced w in
      check_parity ~backend:"sim" w s st;
      let p, pt = Parallel.run_traced w in
      check_parity ~backend:"domains" w p pt;
      if p.Diff.ops <> s.Diff.ops then
        Alcotest.failf
          "backends completed different op counts for [%s]: sim=%d domains=%d"
          (Diff.describe w) s.Diff.ops p.Diff.ops)
    seeds

(* Broken-core fixtures: the same drivers, the same checkers, a core
   with its final decision step corrupted — the suite must go red. The
   chosen seeds keep the history under Diff.byzlin_op_cap, so the
   exhaustive checker runs and rejection does not depend on the (real,
   uncontrolled) domains interleaving. *)
let test_broken proto seed () =
  let w = Diff.generate ~proto seed in
  let ops = Diff.sim w in
  if ops.Diff.ops > Diff.byzlin_op_cap then
    Alcotest.failf
      "fixture seed %d grew past byzlin_op_cap (%d ops): pick another seed"
      seed ops.Diff.ops;
  check_backend ~backend:"domains" w (Parallel.run w).Diff.verdict;
  let b, bt = Parallel.run_traced ~broken:true w in
  (match b.Diff.verdict with
  | Error _ -> ()
  | Ok () ->
      Alcotest.failf
        "broken %s core was ACCEPTED on [%s]: the conformance suite cannot \
         detect divergence"
        (Diff.proto_name proto) (Diff.describe w));
  (* The spans render the value the core actually (falsely) returned, so
     the lie survives the round-trip and the trace checker rejects too. *)
  match bt.Diff.t_verdict with
  | Error _ -> ()
  | Ok () ->
      Alcotest.failf
        "broken %s core was accepted through the TRACE on [%s]: spans do not \
         carry the lying results"
        (Diff.proto_name proto) (Diff.describe w)

(* The committed counterexamples replay through the pure-core sim driver
   with their recorded expectations intact. *)
let test_scenario file () =
  let path = Filename.concat "fixtures/scenarios" file in
  match Scenario.load path with
  | Error e -> Alcotest.failf "%s: parse error: %s" file e
  | Ok sc -> (
      match Scenario.run sc with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s (%s): replay diverged on the pure-core driver: %s"
            file sc.Scenario.sc_name e)

(* ---------------- The judge on hand-built histories ---------------- *)

(* Entries with explicit [inv, ret] stamps, every pid correct. *)
let history entries : ('o, 'r) Lnd_history.History.t =
  {
    Lnd_history.History.entries =
      List.map
        (fun (pid, op, inv, res, ret) ->
          { Lnd_history.History.pid; op; inv; ret = Some (res, ret) })
        entries;
  }

let correct _ = true

(* Over the cap the search is skipped, so the monotone check alone must
   reject a correct TEST=1 that precedes a correct TEST=0. *)
let test_judge_testorset_monotone_over_cap () =
  let module T = Lnd_history.Spec.Testorset_spec in
  let fillers =
    List.init Diff.byzlin_op_cap (fun i ->
        (1, T.Test, 10 + (2 * i), T.Bit 1, 11 + (2 * i)))
  in
  let h =
    history
      ([
         (0, T.Set, 0, T.Done, 1);
         (1, T.Test, 2, T.Bit 1, 3);
         (2, T.Test, 4, T.Bit 0, 5);
       ]
      @ fillers)
  in
  Alcotest.(check bool)
    "history is over the cap" true
    (List.length (Lnd_history.History.complete_entries h) > Diff.byzlin_op_cap);
  match Diff.check_testorset_history ~correct h with
  | Error m ->
      Alcotest.(check string)
        "the monotone check rejects"
        "test-or-set stickiness violated: TEST=1 then a later TEST=0" m
  | Ok _ -> Alcotest.fail "TEST=1 then a later TEST=0 was accepted"

(* [Ok true] when the exhaustive search ran; [Ok false] when the history
   was over the cap and only the monitors judged it. *)
let test_judge_sticky_reports_search () =
  let module S = Lnd_history.Spec.Sticky_spec in
  let reads k =
    history
      ((0, S.Write "a", 0, S.Done, 1)
      :: List.init k (fun i ->
             let t = 2 + (2 * i) in
             (1 + (i mod 3), S.Read, t, S.Val (Some "a"), t + 1)))
  in
  let verdict h =
    match Diff.check_sticky_history ~correct h with
    | Ok checked -> checked
    | Error m -> Alcotest.failf "a valid sticky history was rejected: %s" m
  in
  Alcotest.(check bool) "under the cap: searched" true (verdict (reads 3));
  Alcotest.(check bool)
    "over the cap: monitors only" false
    (verdict (reads Diff.byzlin_op_cap))

(* ---------------- Ownership on both drivers ---------------- *)

(* Over the sticky layout at n = 4, the two breaches of the model's
   rules: writing E_0, which only p0 may write, and reading R_{0,2},
   which only p0 and p2 may read. Each is tried by pid 1, correct, whose
   run must fail, and by pid 3, Byzantine, which must die while the run
   stays Ok. The Byzantine program writes its own E_3, then breaches,
   then writes its own R_3: R_3 keeping its initial value shows it died
   at the breach, and pid 1 waits for E_3 so that it gets there. *)
let breaches =
  Machine.
    [
      ("write E_0", write (S_core.E 0) (Univ.inj Univ.int 1));
      ( "read R_{0,2}",
        let* _ = read (S_core.Rjk (0, 2)) in
        ret () );
    ]

let flag = Univ.inj Univ.int 1
let flagged u = Univ.prj_default Univ.int ~default:0 u = 1

let byz_prog breach =
  Machine.(
    let* () = write (S_core.E 3) flag in
    let* () = breach in
    write (S_core.R 3) flag)

(* pid 1's job in the Byzantine case: wait for E_3, then read it once
   more, a step in which the sim schedules the script's breach before it
   quiesces. (A yield would park the job on domains until a write that
   never comes.) *)
let rec await_e3 () =
  Machine.(
    let* u = read (S_core.E 3) in
    if flagged u then
      let* _ = read (S_core.E 3) in
      ret ()
    else
      let* () = yield in
      await_e3 ())

let expect_violation ~backend what = function
  | Error m when Test_obs.contains ~sub:"Permission_violation" m -> ()
  | Error m ->
      Alcotest.failf "%s: a correct %s failed for another reason: %s" backend
        what m
  | Ok _ ->
      Alcotest.failf "%s: a correct process's %s was accepted" backend what

let on_domains ~byz breach =
  let cell = S_core.layout ~n:4 Domains.Dcell.make in
  let d = Domains.create () in
  let job prog = Domains.job ~cell ~finish:(fun ~inv:_ ~ret:_ () -> ()) prog in
  if byz then begin
    Domains.add_process d ~pid:1 [ job await_e3 ];
    Domains.add_process d ~pid:3 []
      ~daemons:
        [ Domains.daemon ~label:"byz" ~critical:false ~cell (byz_prog breach) ]
  end
  else Domains.add_process d ~pid:1 [ job (fun () -> breach) ];
  (Domains.run d, fun r -> Domains.Dcell.read (cell r))

(* The sim verdict on the same processes — an error naming the first
   correct fiber that failed, as a system's verdict does — the fibers
   that failed, and the content of pid 3's registers afterwards. *)
let on_sim ~byz breach =
  let space = Space.create ~n:4 in
  let sched = Sched.create ~space ~choose:(Policy.round_robin ()) in
  let cell = S_core.layout ~n:4 (Cell.shm_allocator space) in
  if byz then
    ignore
      (Sched.spawn sched ~pid:3 ~name:"byz3" ~daemon:true (fun () ->
           Drive.run ~cell (byz_prog breach)));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"r1" (fun () ->
         Drive.run ~cell (if byz then await_e3 () else breach)));
  let verdict =
    match Sched.run ~max_steps:10_000 sched with
    | Sched.Quiescent -> (
        match
          List.find_opt
            (fun ((fb : Sched.fiber), _) -> not (byz && fb.Sched.pid = 3))
            (Sched.failures sched)
        with
        | Some (fb, e) ->
            Error
              (Printf.sprintf "correct fiber %s failed: %s" fb.Sched.fname
                 (Printexc.to_string e))
        | None -> Ok ())
    | _ -> Error "the sim run did not quiesce"
  in
  let of_p3 name =
    (List.find (fun (r : Lnd_shm.Register.t) -> r.name = name)
       (Space.owned space ~pid:3))
      .value
  in
  (verdict, Sched.failures sched, of_p3)

let test_ownership_correct () =
  List.iter
    (fun (what, breach) ->
      expect_violation ~backend:"domains" what
        (fst (on_domains ~byz:false breach));
      let verdict, _, _ = on_sim ~byz:false breach in
      expect_violation ~backend:"sim" what verdict)
    breaches

let test_ownership_byzantine () =
  List.iter
    (fun (what, breach) ->
      let r, read = on_domains ~byz:true breach in
      (match r with
      | Ok _ -> ()
      | Error m ->
          Alcotest.failf "domains: a Byzantine %s failed the run: %s" what m);
      if not (flagged (read (S_core.E 3)) && not (flagged (read (S_core.R 3))))
      then
        Alcotest.failf "domains: a Byzantine %s did not kill its machine" what;
      let verdict, failures, of_p3 = on_sim ~byz:true breach in
      (match verdict with
      | Ok _ -> ()
      | Error m ->
          Alcotest.failf "sim: a Byzantine %s failed the run: %s" what m);
      (match failures with
      | [ (fb, Space.Permission_violation { pid = 3; _ }) ]
        when fb.Sched.pid = 3 -> ()
      | _ -> Alcotest.failf "sim: a Byzantine %s did not kill its fiber" what);
      if not (flagged (of_p3 "E_3") && not (flagged (of_p3 "R_3"))) then
        Alcotest.failf "sim: a Byzantine %s went on past the breach" what)
    breaches

(* A strategy that does not apply — to the register, or a writer
   strategy away from the writer — is rejected when the plan is built,
   never dropped. *)
let test_plan_rejects_strategies () =
  let module B = Lnd_byz.Byz_script in
  List.iter
    (fun (what, proto, pid, s) ->
      match
        Diff.plan (Diff.generate ~proto 1) ~scripts:[ (pid, s) ]
          ~byzantine:[ pid ] ~broken:false
      with
      | (_ : Diff.any_plan) -> Alcotest.failf "accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("selective on sticky", Diff.Sticky, 3, B.Selective "a");
      ("sign-without-write on sticky", Diff.Sticky, 0, B.Sign_without_write "a");
      ( "a denying writer at pid 3",
        Diff.Verifiable,
        3,
        B.Denying_writer { v = "a"; deny_after = 2 } );
      ( "an equivocating writer at pid 2",
        Diff.Sticky,
        2,
        B.Equivocating_writer { va = "a"; vb = "b"; flip_after = 2 } );
      ( "a verifiable equivocating writer flipping after 2 rounds",
        Diff.Verifiable,
        0,
        B.Equivocating_writer { va = "a"; vb = "b"; flip_after = 2 } );
    ]

let tests =
  [
    Alcotest.test_case "sim histories byte-identical to golden baselines"
      `Slow test_golden_sim;
    Alcotest.test_case "sticky: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Sticky);
    Alcotest.test_case "verifiable: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Verifiable);
    Alcotest.test_case "testorset: 60 seeds agree on sim + domains" `Slow
      (test_agreement Diff.Testorset);
    Alcotest.test_case "broken sticky core is rejected" `Slow
      (test_broken Diff.Sticky 1);
    Alcotest.test_case "broken verifiable core is rejected" `Slow
      (test_broken Diff.Verifiable 2);
    Alcotest.test_case "broken testorset core is rejected" `Slow
      (test_broken Diff.Testorset 5);
    Alcotest.test_case "judge: TEST=1 then TEST=0 rejected over the cap"
      `Quick test_judge_testorset_monotone_over_cap;
    Alcotest.test_case "judge: sticky search ran under the cap, not over"
      `Quick test_judge_sticky_reports_search;
    Alcotest.test_case "weakened_retract_dpor.scn replays on pure cores" `Quick
      (test_scenario "weakened_retract_dpor.scn");
    Alcotest.test_case "weakened_synth.scn replays on pure cores" `Quick
      (test_scenario "weakened_synth.scn");
    Alcotest.test_case
      "ownership: a correct foreign write or SWSR read fails the run on both \
       drivers"
      `Quick test_ownership_correct;
    Alcotest.test_case
      "ownership: a Byzantine foreign write or SWSR read dies, the run stays \
       Ok on both drivers"
      `Quick test_ownership_byzantine;
    Alcotest.test_case "plan: a strategy that does not apply is rejected"
      `Quick test_plan_rejects_strategies;
  ]
