(* Ablation experiments: each design choice the paper's prose motivates is
   removed, and the predicted failure is exhibited; the unmodified
   algorithm is then shown to survive the same scenario.

   A1 (§5.1): the strawman one-shot VERIFY breaks the relay property.
   A2 (§7.1): WRITE without the n-f witness wait lets a READ after a
              completed WRITE return ⊥ (validity violation).
   A3 (§7.1): the lax witness policy lets an equivocating writer split
              the correct witnesses between two values.

   Each runs as a session of the register's plan: the ablated programs
   are the cores' own ([Verifiable_core.strawman_verify_prog],
   [Sticky_core.write_nowait_prog], [Sticky_core.help_lax_prog]), the
   operations are jobs whose results come from the session's history,
   and the plan's judge gives its verdict on that history. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
open Lnd_history
module Diff = Lnd_parallel.Diff
module Vcore = Lnd_verifiable.Verifiable_core
module Score = Lnd_sticky.Sticky_core
module Vspec = Spec.Verifiable_spec
module Sspec = Spec.Sticky_spec

let fiber_done (fb : Sched.fiber) (_ : Sched.t) =
  match fb.Sched.state with Sched.Finished _ -> true | Sched.Ready _ -> false

(* Spawn a client running one job; return its fiber. *)
let client (s : (_, _, _) Diff.session) ~pid ~name job =
  s.client ~pid ~name [ job ];
  List.nth s.sched.Sched.fibers (List.length s.sched.Sched.fibers - 1)

(* A raw register write by [pid] — a plant, an asker or an erasure — as
   one effect fiber. *)
let put (s : (_, _, _) Diff.session) ~pid ~name reg u =
  Sched.spawn s.sched ~pid ~name (fun () -> Sched.write (s.regs reg) u)

let counter c = Univ.inj Codecs.counter c

(* Completed operations in the order they returned. *)
let results (s : (_, _, _) Diff.session) =
  List.map
    (fun (e : (_, _) History.entry) -> Option.map fst e.ret)
    (List.sort
       (fun a b -> compare (History.response_time a) (History.response_time b))
       (History.complete_entries (s.history ())))

let judge (p : (_, _, _) Diff.plan) (s : (_, _, _) Diff.session) =
  p.judge ~correct:(fun pid -> s.correct.(pid)) (s.history ())

let check_rejects what (p : (_, _, _) Diff.plan) s =
  match judge p s with
  | Error m when Test_obs.contains ~sub:what m -> ()
  | Error m -> Alcotest.failf "judge rejected for another reason: %s" m
  | Ok _ -> Alcotest.failf "judge accepted a %s violation" what

let check_accepts (p : (_, _, _) Diff.plan) s =
  match judge p s with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "judge rejected: %s" m

(* Daemon-only phases need a non-daemon "pacer" to keep the scheduler
   running while we wait for a predicate over daemon-made progress. Each
   phase gets its own step budget. *)
let pacer = ref 0

let run_until ?(pace_pid = 2) sched name pred =
  incr pacer;
  ignore
    (Sched.spawn sched ~pid:pace_pid ~name:(Printf.sprintf "pacer%d" !pacer)
       (fun () ->
         for _ = 1 to 200_000 do
           Sched.yield ()
         done));
  match
    Sched.run ~max_steps:(Sched.steps sched + 4_000_000) ~until:pred sched
  with
  | Sched.Condition_met -> ()
  | _ -> Alcotest.failf "%s: phase stuck" name

(* ------------------------------------------------------------------ *)
(* A1: strawman verify breaks relay                                    *)
(* ------------------------------------------------------------------ *)

let a1_q = Quorum.make_relaxed ~n:7 ~f:2

let strawman v =
  Diff.Job
    {
      op = Vspec.Verify v;
      span = ("VERIFY", Some v);
      prog = (fun _ -> Vcore.strawman_verify_prog ~q:a1_q v);
      result = (fun c ok -> (c, Vspec.Verified ok));
      text = string_of_bool;
    }

let witness_set (s : (Vcore.reg, _, _) Diff.session) j =
  Vcore.dec_vset (s.regs (Vcore.R j)).Register.value

(* n=7, f=2; Byzantine {p0 (writer), p6}. The coalition plants v in its
   two witness registers and lets exactly one correct process adopt; the
   strawman verifier counts 3 = f+1 yes and says TRUE; after the
   coalition erases its registers, a later strawman says FALSE. *)
let test_a1_strawman_breaks_relay () =
  let plan = Diff.verifiable_plan a1_q ~byzantine:[ 0; 6 ] ~scripts:[] in
  (* help only for p1: the other correct helps stay asleep so that only
     p1 adopts *)
  let plan =
    { plan with helps = List.filter (fun (pid, _) -> pid = 1) plan.helps }
  in
  let s = Diff.session (Policy.random ~seed:3) plan in
  let v = Vcore.enc_vset (Value.Set.singleton "v") in
  let plant0 = put s ~pid:0 ~name:"byz-plant0" (Vcore.R 0) v in
  let plant6 = put s ~pid:6 ~name:"byz-plant6" (Vcore.R 6) v in
  run_until s.sched "plant" (fun st ->
      fiber_done plant0 st && fiber_done plant6 st);
  (* an asker appears (p5 bumps its round counter), prompting p1's help
     to adopt v from R_0 *)
  ignore (put s ~pid:5 ~name:"asker" (Vcore.C 5) (counter 1));
  run_until s.sched "adopt" (fun _ -> Value.Set.mem "v" (witness_set s 1));
  (* first strawman: sees R_0, R_1, R_6 ∋ v -> 3 >= f+1 -> TRUE *)
  let va = client s ~pid:2 ~name:"naiveA" (strawman "v") in
  run_until s.sched "naiveA" (fiber_done va);
  (* the coalition erases its registers ("denies") *)
  let empty = Vcore.enc_vset Value.Set.empty in
  let erase0 = put s ~pid:0 ~name:"byz-erase0" (Vcore.R 0) empty in
  let erase6 = put s ~pid:6 ~name:"byz-erase6" (Vcore.R 6) empty in
  run_until s.sched "erase" (fun st ->
      fiber_done erase0 st && fiber_done erase6 st);
  (* later strawman: only R_1 ∋ v -> 1 < f+1 -> FALSE: relay broken *)
  let vb = client s ~pid:3 ~name:"naiveB" (strawman "v") in
  run_until s.sched "naiveB" (fiber_done vb);
  Alcotest.(check bool)
    "strawman verifies: TRUE, then FALSE" true
    (results s = [ Some (Vspec.Verified true); Some (Vspec.Verified false) ]);
  Alcotest.(check int) "steps" 163 (Sched.steps s.sched);
  check_rejects "RELAY" plan s

(* The real Algorithm 1 in the same scenario: whatever the first VERIFY
   answers, no later VERIFY contradicts a TRUE. *)
let test_a1_algorithm1_survives () =
  let plan = Diff.verifiable_plan a1_q ~byzantine:[ 0; 6 ] ~scripts:[] in
  let s = Diff.session (Policy.random ~seed:3) plan in
  let v = Vcore.enc_vset (Value.Set.singleton "v") in
  (* p0 cannot write R_6: the plant fiber fails on its second write, so
     only its own register is planted *)
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"byz-plant" (fun () ->
         Sched.write (s.regs (Vcore.R 0)) v;
         Sched.write (s.regs (Vcore.R 6)) v));
  let va = client s ~pid:2 ~name:"verifyA" (Diff.verify a1_q ~pid:2 "v") in
  run_until s.sched "verifyA" (fiber_done va);
  let erase =
    put s ~pid:0 ~name:"byz-erase" (Vcore.R 0) (Vcore.enc_vset Value.Set.empty)
  in
  run_until s.sched "erase" (fiber_done erase);
  let vb = client s ~pid:3 ~name:"verifyB" (Diff.verify a1_q ~pid:3 "v") in
  run_until s.sched "verifyB" (fiber_done vb);
  (* RELAY: a true first answer forces a true second answer *)
  (match results s with
  | [ Some (Vspec.Verified first); Some (Vspec.Verified second) ] ->
      if first then Alcotest.(check bool) "relay preserved" true second
  | _ -> Alcotest.fail "expected two completed VERIFYs");
  check_accepts plan s

(* ------------------------------------------------------------------ *)
(* A2: write without the witness wait breaks validity                  *)
(* ------------------------------------------------------------------ *)

let a2_q = Quorum.make_relaxed ~n:7 ~f:2

let write_nowait v =
  Diff.Job
    {
      op = Sspec.Write v;
      span = ("WRITE", Some v);
      prog = (fun _ -> Score.write_nowait_prog v);
      result = (fun c () -> (c, Sspec.Done));
      text = (fun () -> "done");
    }

(* One run of the race. Asynchrony is modelled by processes p1..p4 being
   very slow: they take no steps during the first [freeze] scheduler steps
   (and run normally afterwards — the schedule stays fair). The writer
   performs WRITE, completing strictly before the reader invokes READ.
   Returns what the READ returned and the judge's verdict. *)
let a2_run ~seed ~nowait ~freeze =
  let slow (fb : Sched.fiber) = fb.pid >= 1 && fb.pid <= 4 in
  let plan = Diff.sticky_plan a2_q ~byzantine:[] ~scripts:[] in
  let s =
    Diff.session
      (Policy.only
         (fun t fb -> Sched.steps t > freeze || not (slow fb))
         (Policy.random ~seed))
      plan
  in
  let write = if nowait then write_nowait "v" else Diff.write_sticky a2_q "v" in
  let wf = client s ~pid:0 ~name:"writer" write in
  run_until ~pace_pid:5 s.sched "write" (fiber_done wf);
  (* WRITE has completed; now READ *)
  let rf = client s ~pid:6 ~name:"reader" (Diff.read_sticky a2_q ~pid:6) in
  run_until ~pace_pid:5 s.sched "read" (fiber_done rf);
  match results s with
  | [ Some Sspec.Done; Some (Sspec.Val got) ] -> (got, judge plan s)
  | _ -> Alcotest.fail "expected a completed WRITE, then a READ"

let test_a2_nowait_breaks_validity () =
  let runs =
    List.map
      (fun seed -> (seed, a2_run ~seed ~nowait:true ~freeze:50_000))
      (List.init 20 Fun.id)
  in
  let violations = List.filter (fun (_, (got, _)) -> got = None) runs in
  Alcotest.(check bool)
    (Printf.sprintf
       "some schedule returns ⊥ after a completed no-wait WRITE (%d/20 seeds)"
       (List.length violations))
    true
    (List.length violations > 0);
  (* the judge's validity monitor rejects exactly the ⊥ runs *)
  List.iter
    (fun (seed, (got, verdict)) ->
      match (got, verdict) with
      | None, Error m when Test_obs.contains ~sub:"VALIDITY" m -> ()
      | Some _, Ok _ -> ()
      | _ -> Alcotest.failf "seed %d: the judge disagrees with the READ" seed)
    runs

let test_a2_algorithm2_survives () =
  List.iter
    (fun seed ->
      let got, verdict = a2_run ~seed ~nowait:false ~freeze:50_000 in
      Alcotest.(check (option string))
        (Printf.sprintf "VALIDITY with the real WRITE (seed %d)" seed)
        (Some "v") got;
      Alcotest.(check bool)
        (Printf.sprintf "the judge accepts (seed %d)" seed)
        true (Result.is_ok verdict))
    (List.init 10 Fun.id)

(* ------------------------------------------------------------------ *)
(* A3: lax witness policy lets witnesses split                         *)
(* ------------------------------------------------------------------ *)

let a3_n = 4
let a3_q = Quorum.make_relaxed ~n:a3_n ~f:1

let a3_witness (s : (Score.reg, _, _) Diff.session) j =
  Score.dec_vopt (s.regs (Score.R j)).Register.value

(* Equivocating Byzantine writer vs help policy: phase 1 shows "a" to p1
   while p3's Help sleeps, phase 2 shows "b" to everyone. Returns the
   session, the steps at which the two phases ended, and the correct
   witnesses once the system settled until step 500,000. *)
let a3_run ~lax =
  let plan = Diff.sticky_plan a3_q ~byzantine:[ 0 ] ~scripts:[] in
  let plan =
    if lax then
      {
        plan with
        helps =
          List.map
            (fun (pid, _) -> (pid, Score.help_lax_prog ~n:a3_n ~pid))
            plan.helps;
      }
    else plan
  in
  let random = Policy.random ~seed:5 in
  let s = Diff.session random plan in
  (* phase 1: E_0 = a, p3's Help asleep; give p1 an asker so it answers *)
  let w1 =
    put s ~pid:0 ~name:"byz-a" (Score.E 0) (Score.enc_vopt (Some "a"))
  in
  ignore (put s ~pid:2 ~name:"asker" (Score.C 2) (counter 1));
  Sched.set_choose s.sched
    (Policy.only
       (fun _ (fb : Sched.fiber) -> fb.pid <> 3 || not fb.daemon)
       random);
  run_until s.sched "phase a" (fun st ->
      (fiber_done w1 st && not lax) || (lax && a3_witness s 1 = Some "a"));
  let phase_a = Sched.steps s.sched in
  (* phase 2: flip E_0 to b, wake everyone *)
  let w2 =
    put s ~pid:0 ~name:"byz-b" (Score.E 0) (Score.enc_vopt (Some "b"))
  in
  Sched.set_choose s.sched random;
  run_until s.sched "flip" (fiber_done w2);
  let flip = Sched.steps s.sched in
  (* let the system settle until step 500,000 *)
  ignore
    (Sched.spawn s.sched ~pid:2 ~name:"settle" (fun () ->
         for _ = 1 to 2000 do
           Sched.yield ()
         done));
  ignore (Sched.run ~max_steps:500_000 s.sched);
  (s, (phase_a, flip), List.filter_map (a3_witness s) [ 1; 2; 3 ])

(* The phases end, and the settled system stands, where they always
   have: the schedule of the whole experiment is pinned. *)
let check_a3 ~lax ~phases ~reads
    ((s : (_, _, _) Diff.session), got_phases, _) =
  let what = if lax then "lax" else "strict" in
  Alcotest.(check (pair int int)) (what ^ ": phases end at") phases got_phases;
  let st = Space.stats s.space in
  Alcotest.(check (pair int int))
    (what ^ ": reads and writes after 500,000 steps")
    (reads, 12)
    (st.Space.reads, st.Space.writes)

let test_a3_lax_splits_witnesses () =
  let run = a3_run ~lax:true in
  check_a3 ~lax:true ~phases:(25, 49) ~reads:249_130 run;
  let _, _, witnesses = run in
  let distinct = List.sort_uniq compare witnesses in
  Alcotest.(check bool)
    (Printf.sprintf "lax policy splits correct witnesses (%s)"
       (String.concat "," witnesses))
    true
    (List.length distinct > 1)

let test_a3_strict_never_splits () =
  let run = a3_run ~lax:false in
  check_a3 ~lax:false ~phases:(6, 16) ~reads:249_136 run;
  let _, _, witnesses = run in
  let distinct = List.sort_uniq compare witnesses in
  Alcotest.(check bool)
    (Printf.sprintf "strict policy keeps witnesses unanimous (%s)"
       (String.concat "," witnesses))
    true
    (List.length distinct <= 1)

(* A READ by p2 after the settled run, within [budget] steps of its own:
   whether it returned, and how many steps the run took. *)
let a3_read ~lax ~budget =
  let s, _, _ = a3_run ~lax in
  let reader = client s ~pid:2 ~name:"reader" (Diff.read_sticky a3_q ~pid:2) in
  let before = Sched.steps s.sched in
  ignore
    (Sched.run ~max_steps:(before + budget) ~until:(fiber_done reader) s.sched);
  let reads =
    List.filter
      (fun (e : (Sspec.op, Sspec.res) History.entry) -> e.op = Sspec.Read)
      (s.history ()).History.entries
  in
  (reads, Sched.steps s.sched - before)

(* With split witnesses, a READ cannot assemble an n-f quorum and stalls:
   it is invoked and takes steps all through its budget, and never
   returns. With the strict policy it terminates. *)
let test_a3_lax_read_stalls () =
  match a3_read ~lax:true ~budget:300_000 with
  | [ { History.ret = None; _ } ], steps ->
      Alcotest.(check int) "the READ ran its whole budget" 300_000 steps
  | [ _ ], _ -> Alcotest.fail "read returned under split witnesses"
  | _ -> Alcotest.fail "the READ was never invoked"

let test_a3_strict_read_terminates () =
  match a3_read ~lax:false ~budget:2_000_000 with
  | [ { History.ret = Some (Sspec.Val v, _); _ } ], _ ->
      Alcotest.(check (option string)) "read returns the witnessed value"
        (Some "b") v
  | _ -> Alcotest.fail "read did not terminate under the strict policy"

let tests =
  [
    Alcotest.test_case "A1: strawman verify breaks relay" `Quick
      test_a1_strawman_breaks_relay;
    Alcotest.test_case "A1: Algorithm 1 survives the same attack" `Quick
      test_a1_algorithm1_survives;
    Alcotest.test_case "A2: no-wait write breaks validity" `Quick
      test_a2_nowait_breaks_validity;
    Alcotest.test_case "A2: Algorithm 2 write survives" `Quick
      test_a2_algorithm2_survives;
    Alcotest.test_case "A3: lax policy splits witnesses" `Quick
      test_a3_lax_splits_witnesses;
    Alcotest.test_case "A3: strict policy never splits" `Quick
      test_a3_strict_never_splits;
    Alcotest.test_case "A3: lax read stalls" `Quick test_a3_lax_read_stalls;
    Alcotest.test_case "A3: strict read terminates" `Quick
      test_a3_strict_read_terminates;
  ]
