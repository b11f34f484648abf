(* Both algorithms under every scheduling policy: the theorems hold for
   all fair schedules, so round-robin, seeded-random, and biased-random
   (slow processes) runs must all satisfy the same properties. Plus a
   long mixed soak test. *)

open Lnd_runtime
module Diff = Lnd_parallel.Diff

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
  let q = Lnd_support.Quorum.make_relaxed ~n ~f in
  let t =
    Diff.session (mk_policy ()) (Diff.verifiable_plan q ~byzantine:[] ~scripts:[])
  in
  t.client ~pid:0 ~name:"w" [ Diff.write_verifiable "p"; Diff.sign "p" ];
  for pid = 1 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "p" ]
  done;
  run_ok pname t.sched ~max_steps:4_000_000;
  Alcotest.(check bool)
    (Printf.sprintf "linearizable under %s" pname)
    true
    (Lnd_history.Byzlin.verifiable ~writer:0
       ~correct:(fun pid -> t.correct.(pid))
       (t.history ()))

let test_sticky_under_policy (pname, mk_policy) () =
  let n = 4 and f = 1 in
  let q = Lnd_support.Quorum.make_relaxed ~n ~f in
  let t =
    Diff.session (mk_policy ()) (Diff.sticky_plan q ~byzantine:[] ~scripts:[])
  in
  t.client ~pid:0 ~name:"w" [ Diff.write_sticky q "p" ];
  for pid = 1 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ]
  done;
  run_ok pname t.sched ~max_steps:4_000_000;
  Alcotest.(check bool)
    (Printf.sprintf "linearizable under %s" pname)
    true
    (Lnd_history.Byzlin.sticky ~writer:0
       ~correct:(fun pid -> t.correct.(pid))
       (t.history ()))

(* Soak: n=7 with a denying Byzantine writer and a flip-flopping
   colluder; 5 readers each perform a long mixed program. Monitors must
   accept the whole (large) history and everything must terminate. *)
let test_soak () =
  let n = 7 and f = 2 in
  let q = Lnd_support.Quorum.make_relaxed ~n ~f in
  let t =
    Diff.session (Policy.random ~seed:404)
      (Diff.verifiable_plan q ~byzantine:[ 0; 6 ]
         ~scripts:
           [
             ( 0,
               Lnd_byz.Byz_script.Denying_writer { v = "soak"; deny_after = 5 }
             );
             (6, Lnd_byz.Byz_script.Flipflop "soak");
           ])
  in
  for pid = 1 to 5 do
    t.client ~pid
      ~name:(Printf.sprintf "r%d" pid)
      (List.concat
         (List.init 6 (fun _ -> [ Diff.verify q ~pid "soak"; Diff.read_verifiable ])))
  done;
  run_ok "soak" t.sched ~max_steps:30_000_000;
  let correct pid = t.correct.(pid) in
  let h = t.history () in
  match
    Lnd_history.Monitors.check_all
      (Lnd_history.Monitors.relay ~correct h
      @ Lnd_history.Monitors.validity ~correct h)
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
