(* Theorem 23 / Figures 1-3, executable: the register-reset adversary
   breaks the relay property of test-or-set at n = 3f, and is powerless at
   n = 3f + 1. *)

module Imp = Lnd_fuzz.Impossibility

(* [relay_violated] is the verdict of the construction's plan judge on
   the attack's history; it must say exactly what the two bits say. *)
let attack ?(impl = Imp.Via_verifiable) ~n ~f ~seed () =
  let o = Imp.run_attack ~seed ~impl ~n ~f () in
  Alcotest.(check int) "TEST by p_a returns 1" 1 o.Imp.test_a;
  Alcotest.(check bool) "the judge agrees with TEST(p_a), TEST'(p_b)"
    (o.Imp.test_a = 1 && o.Imp.test_b = 0)
    o.Imp.relay_violated;
  o

(* At the impossibility bound (n = 3f) the attack flips TEST' to 0. *)
let test_violation_at_bound ?impl ~f ~seed () =
  let o = attack ?impl ~n:(3 * f) ~f ~seed () in
  Alcotest.(check int) "TEST' by p_b returns 0 (relay broken)" 0 o.Imp.test_b;
  Alcotest.(check bool) "relay violated" true o.Imp.relay_violated

(* With one more process (n = 3f + 1) the same adversary fails. *)
let test_safe_above_bound ?impl ~f ~seed () =
  let o = attack ?impl ~n:((3 * f) + 1) ~f ~seed () in
  Alcotest.(check int) "TEST' by p_b returns 1 (relay holds)" 1 o.Imp.test_b;
  Alcotest.(check bool) "relay not violated" false o.Imp.relay_violated

(* The violation at n = 3f is deterministic across schedules. *)
let test_violation_many_seeds () =
  List.iter
    (fun seed ->
      let o = attack ~n:3 ~f:1 ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "violation at n=3 f=1 (seed %d)" seed)
        true o.Imp.relay_violated)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_safety_many_seeds () =
  List.iter
    (fun seed ->
      let o = attack ~n:4 ~f:1 ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "no violation at n=4 f=1 (seed %d)" seed)
        false o.Imp.relay_violated)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Each phase's step budget counts from the step the phase starts at.
   Here the longest phase takes 210 steps and the four take 399: a
   budget of 250 per phase fits each of them but not their sum, and the
   attack must end as under the default budget. *)
let test_budget_per_phase () =
  let o = attack ~n:4 ~f:1 ~seed:13 () in
  Alcotest.(check int) "the four phases take 399 steps" 399 o.Imp.steps;
  let o' = Imp.run_attack ~seed:13 ~max_steps_per_phase:250 ~n:4 ~f:1 () in
  Alcotest.(check bool) "same outcome under a per-phase budget" true (o = o')

let tests =
  [
    Alcotest.test_case "step budget is per phase, not cumulative" `Quick
      test_budget_per_phase;
    Alcotest.test_case "relay violated at n=3 f=1" `Quick
      (test_violation_at_bound ~f:1 ~seed:10);
    Alcotest.test_case "relay violated at n=6 f=2" `Quick
      (test_violation_at_bound ~f:2 ~seed:11);
    Alcotest.test_case "relay violated at n=9 f=3" `Quick
      (test_violation_at_bound ~f:3 ~seed:12);
    Alcotest.test_case "attack fails at n=4 f=1" `Quick
      (test_safe_above_bound ~f:1 ~seed:13);
    Alcotest.test_case "attack fails at n=7 f=2" `Quick
      (test_safe_above_bound ~f:2 ~seed:14);
    Alcotest.test_case "attack fails at n=10 f=3" `Quick
      (test_safe_above_bound ~f:3 ~seed:15);
    Alcotest.test_case "violation deterministic across seeds" `Quick
      test_violation_many_seeds;
    Alcotest.test_case "safety deterministic across seeds" `Quick
      test_safety_many_seeds;
    (* The impossibility is implementation-independent: the same adversary
       also breaks the STICKY-based test-or-set at n = 3f and fails above. *)
    Alcotest.test_case "sticky-based: relay violated at n=3 f=1" `Quick
      (test_violation_at_bound ~impl:Imp.Via_sticky ~f:1 ~seed:20);
    Alcotest.test_case "sticky-based: relay violated at n=6 f=2" `Quick
      (test_violation_at_bound ~impl:Imp.Via_sticky ~f:2 ~seed:21);
    Alcotest.test_case "sticky-based: attack fails at n=4 f=1" `Quick
      (test_safe_above_bound ~impl:Imp.Via_sticky ~f:1 ~seed:22);
    Alcotest.test_case "sticky-based: attack fails at n=7 f=2" `Quick
      (test_safe_above_bound ~impl:Imp.Via_sticky ~f:2 ~seed:23);
    (* the boundary at larger resilience *)
    Alcotest.test_case "relay violated at n=12 f=4" `Slow
      (test_violation_at_bound ~f:4 ~seed:30);
    Alcotest.test_case "attack fails at n=13 f=4" `Slow
      (test_safe_above_bound ~f:4 ~seed:31);
  ]
