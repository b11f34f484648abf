(* The appendix observations (28/30/92/93/94) as trace invariants,
   validated on real adversarial executions, plus unit tests of the
   checkers on crafted traces. *)

open Lnd_support
open Lnd_shm
module Inv = Lnd_history.Trace_invariants
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Diff = Lnd_parallel.Diff

let no_violations name vs =
  match vs with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: %s (%d total)" name
        (Format.asprintf "%a" Inv.pp_violation v)
        (List.length vs)

(* ---- crafted traces exercise the checkers themselves ---- *)

let acc ?(pid = 1) seq kind reg value : Space.access =
  { Space.acc_seq = seq; acc_pid = pid; acc_kind = kind; acc_reg = reg;
    acc_value = value }

let all_correct _ = true

let test_counter_checker () =
  let w c = Univ.inj Codecs.counter c in
  let good =
    [ acc 0 `Write "C_1" (w 1); acc 1 `Write "C_1" (w 2) ]
  in
  Alcotest.(check int) "monotone ok" 0
    (List.length (Inv.counters_monotone ~correct:all_correct good));
  let bad = [ acc 0 `Write "C_1" (w 5); acc 1 `Write "C_1" (w 3) ] in
  Alcotest.(check int) "decrease flagged" 1
    (List.length (Inv.counters_monotone ~correct:all_correct bad));
  (* Byzantine writes are not constrained *)
  Alcotest.(check int) "byzantine exempt" 0
    (List.length (Inv.counters_monotone ~correct:(fun pid -> pid <> 1) bad))

let test_witness_checker () =
  let w l = Univ.inj Codecs.vset (Value.Set.of_list l) in
  let good =
    [ acc 0 `Write "R_2" (w [ "a" ]); acc 1 `Write "R_2" (w [ "a"; "b" ]) ]
  in
  Alcotest.(check int) "grow ok" 0
    (List.length (Inv.witness_sets_monotone ~correct:all_correct good));
  let bad =
    [ acc 0 `Write "R_2" (w [ "a"; "b" ]); acc 1 `Write "R_2" (w [ "b" ]) ]
  in
  Alcotest.(check int) "drop flagged" 1
    (List.length (Inv.witness_sets_monotone ~correct:all_correct bad));
  (* mailbox registers are not witness sets *)
  let mailbox = [ acc 0 `Write "R_{1,2}" (w [ "a" ]) ] in
  Alcotest.(check int) "mailboxes skipped" 0
    (List.length (Inv.witness_sets_monotone ~correct:all_correct mailbox))

let test_sticky_checker () =
  let w v = Univ.inj Codecs.value_opt v in
  let good =
    [
      acc 0 `Write "E_1" (w (Some "x"));
      acc 1 `Write "E_1" (w (Some "x"));
      acc 2 `Write "R_1" (w (Some "x"));
    ]
  in
  Alcotest.(check int) "stable ok" 0
    (List.length (Inv.sticky_registers_write_once ~correct:all_correct good));
  let bad =
    [ acc 0 `Write "E_1" (w (Some "x")); acc 1 `Write "E_1" (w (Some "y")) ]
  in
  Alcotest.(check int) "flip flagged" 1
    (List.length (Inv.sticky_registers_write_once ~correct:all_correct bad))

let test_stamp_checker () =
  let w c = Univ.inj Codecs.vset_stamped (Value.Set.empty, c) in
  let good = [ acc 0 `Write "R_{1,2}" (w 1); acc 1 `Write "R_{1,2}" (w 2) ] in
  Alcotest.(check int) "increase ok" 0
    (List.length (Inv.mailbox_stamps_increase ~correct:all_correct good));
  let bad = [ acc 0 `Write "R_{1,2}" (w 2); acc 1 `Write "R_{1,2}" (w 2) ] in
  Alcotest.(check int) "repeat flagged" 1
    (List.length (Inv.mailbox_stamps_increase ~correct:all_correct bad))

(* ---- real adversarial executions satisfy the invariants ---- *)

let test_verifiable_run_invariants ~seed () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  let t =
    Diff.session (Policy.random ~seed)
      (Diff.verifiable_plan q ~byzantine:[ 3 ]
         ~scripts:[ (3, Lnd_byz.Byz_script.Flipflop "v") ])
  in
  Space.set_trace t.space ~capacity:300_000;
  t.client ~pid:0 ~name:"w" [ Diff.write_verifiable "v"; Diff.sign "v" ];
  for pid = 1 to 2 do
    t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.verify q ~pid "v" ]
  done;
  (match Sched.run ~max_steps:2_000_000 t.sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "stuck");
  no_violations "verifiable trace"
    (Inv.check_verifiable
       ~correct:(fun pid -> t.correct.(pid))
       (Space.trace t.space))

let test_sticky_run_invariants ~seed () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  let t =
    Diff.session (Policy.random ~seed)
      (Diff.sticky_plan q ~byzantine:[ 0 ]
         ~scripts:
           [
             ( 0,
               Lnd_byz.Byz_script.Equivocating_writer
                 { va = "a"; vb = "b"; flip_after = 2 } );
           ])
  in
  Space.set_trace t.space ~capacity:300_000;
  for pid = 1 to 3 do
    t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ]
  done;
  (match Sched.run ~max_steps:2_000_000 t.sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "stuck");
  no_violations "sticky trace"
    (Inv.check_sticky
       ~correct:(fun pid -> t.correct.(pid))
       (Space.trace t.space))

let tests =
  [
    Alcotest.test_case "checker: counters" `Quick test_counter_checker;
    Alcotest.test_case "checker: witness sets" `Quick test_witness_checker;
    Alcotest.test_case "checker: sticky write-once" `Quick
      test_sticky_checker;
    Alcotest.test_case "checker: mailbox stamps" `Quick test_stamp_checker;
    Alcotest.test_case "verifiable run satisfies Obs 28/30 (seed 1)" `Quick
      (test_verifiable_run_invariants ~seed:1);
    Alcotest.test_case "verifiable run satisfies Obs 28/30 (seed 2)" `Quick
      (test_verifiable_run_invariants ~seed:2);
    Alcotest.test_case "sticky run satisfies Obs 92/93/94 (seed 3)" `Quick
      (test_sticky_run_invariants ~seed:3);
    Alcotest.test_case "sticky run satisfies Obs 92/93/94 (seed 4)" `Quick
      (test_sticky_run_invariants ~seed:4);
  ]
