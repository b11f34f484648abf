(* Both algorithms under every scheduling policy: the theorems hold for
   all fair schedules, so round-robin, seeded-random, and biased-random
   (slow processes) runs must all satisfy the same properties. Plus a
   long mixed soak test. *)

open Lnd_runtime
module VSys = Lnd_verifiable.System
module SSys = Lnd_sticky.System

let policies =
  [
    ("round-robin", fun () -> Policy.round_robin ());
    ("random", fun () -> Policy.random ~seed:77);
    ( "biased (slow p1,p2)",
      fun () -> Policy.random_biased ~seed:78 ~slow:[ 1; 2 ] ~penalty:4 );
  ]

let run_ok name sched ~max_steps =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent -> ()
  | Sched.Budget_exhausted -> Alcotest.failf "%s: budget exhausted" name
  | Sched.Condition_met -> ()

let test_verifiable_under_policy (pname, mk_policy) () =
  let n = 4 and f = 1 in
  let t = VSys.make ~policy:(mk_policy ()) ~n ~f () in
  ignore
    (VSys.client t ~pid:0 ~name:"w" (fun () ->
         VSys.op_write t "p";
         ignore (VSys.op_sign t "p")));
  for pid = 1 to n - 1 do
    ignore
      (VSys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (VSys.op_verify t ~pid "p")))
  done;
  run_ok pname t.sched ~max_steps:4_000_000;
  Alcotest.(check bool)
    (Printf.sprintf "linearizable under %s" pname)
    true (VSys.byz_linearizable t)

let test_sticky_under_policy (pname, mk_policy) () =
  let n = 4 and f = 1 in
  let t = SSys.make ~policy:(mk_policy ()) ~n ~f () in
  ignore (SSys.client t ~pid:0 ~name:"w" (fun () -> SSys.op_write t "p"));
  for pid = 1 to n - 1 do
    ignore
      (SSys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (SSys.op_read t ~pid)))
  done;
  run_ok pname t.sched ~max_steps:4_000_000;
  Alcotest.(check bool)
    (Printf.sprintf "linearizable under %s" pname)
    true (SSys.byz_linearizable t)

(* Soak: n=7 with a denying Byzantine writer and a flip-flopping
   colluder; 5 readers each perform a long mixed program. Monitors must
   accept the whole (large) history and everything must terminate. *)
let test_soak () =
  let n = 7 and f = 2 in
  let t =
    VSys.make ~policy:(Policy.random ~seed:404) ~n ~f ~byzantine:[ 0; 6 ] ()
  in
  ignore
    (Lnd_byz.Byz_verifiable.spawn t.sched t.regs ~pid:0
       (Lnd_byz.Byz_script.Denying_writer { v = "soak"; deny_after = 5 }));
  ignore
    (Lnd_byz.Byz_verifiable.spawn t.sched t.regs ~pid:6
       (Lnd_byz.Byz_script.Flipflop "soak"));
  for pid = 1 to 5 do
    ignore
      (VSys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           for _ = 1 to 6 do
             ignore (VSys.op_verify t ~pid "soak");
             ignore (VSys.op_read t ~pid)
           done))
  done;
  run_ok "soak" t.sched ~max_steps:30_000_000;
  let correct pid = t.correct.(pid) in
  match
    Lnd_history.Monitors.check_all
      (Lnd_history.Monitors.relay ~correct t.history
      @ Lnd_history.Monitors.validity ~correct t.history)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "soak monitor violation: %s" msg

let tests =
  List.map
    (fun p ->
      Alcotest.test_case
        (Printf.sprintf "verifiable under %s" (fst p))
        `Quick
        (test_verifiable_under_policy p))
    policies
  @ List.map
      (fun p ->
        Alcotest.test_case
          (Printf.sprintf "sticky under %s" (fst p))
          `Quick
          (test_sticky_under_policy p))
      policies
  @ [ Alcotest.test_case "soak: 60 ops vs denying+flip-flop" `Slow test_soak ]
