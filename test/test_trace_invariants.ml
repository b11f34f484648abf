(* The appendix observations (28/30/92/93/94) as trace invariants,
   validated on real adversarial executions, plus unit tests of the
   checkers on crafted traces. *)

open Lnd_support
open Lnd_shm
module Inv = Lnd_history.Trace_invariants
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy

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
  let module Sys = Lnd_verifiable.System in
  let n = 4 and f = 1 in
  let t =
    Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 3 ] ()
  in
  Space.set_trace t.space ~capacity:300_000;
  ignore (Lnd_byz.Byz_verifiable.spawn t.sched t.regs ~pid:3
            (Lnd_byz.Byz_script.Flipflop "v"));
  ignore
    (Sys.client t ~pid:0 ~name:"w" (fun () ->
         Sys.op_write t "v";
         ignore (Sys.op_sign t "v")));
  for pid = 1 to 2 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "v")))
  done;
  (match Sys.run ~max_steps:2_000_000 t with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "stuck");
  no_violations "verifiable trace"
    (Inv.check_verifiable
       ~correct:(fun pid -> t.correct.(pid))
       (Space.trace t.space))

let test_sticky_run_invariants ~seed () =
  let module Sys = Lnd_sticky.System in
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  Space.set_trace t.space ~capacity:300_000;
  ignore
    (Lnd_byz.Byz_sticky.spawn t.sched t.regs ~pid:0
       (Lnd_byz.Byz_script.Equivocating_writer
          { va = "a"; vb = "b"; flip_after = 2 }));
  for pid = 1 to 3 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid)))
  done;
  (match Sys.run ~max_steps:2_000_000 t with
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
