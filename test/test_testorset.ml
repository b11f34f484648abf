(* Test-or-set from sticky and from verifiable registers (Observation 25):
   Observation 21 properties plus Byzantine linearizability, with correct
   and Byzantine setters. *)

module Tos = Lnd_testorset.Testorset
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy

let run_ok ?(max_steps = 4_000_000) (t : Tos.t) =
  match Tos.run ~max_steps t with
  | Sched.Quiescent ->
      List.iter
        (fun ((f : Sched.fiber), e) ->
          if t.correct.(f.Sched.pid) then
            Alcotest.failf "correct fiber %s failed: %s" f.Sched.fname
              (Printexc.to_string e))
        (Sched.failures t.sched)
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

let impl_name = function
  | Tos.Sticky_based -> "sticky"
  | Tos.Verifiable_based -> "verifiable"

(* TEST before any SET returns 0. *)
let test_unset impl () =
  let t = Tos.make ~impl ~n:4 ~f:1 () in
  let r = ref 1 in
  ignore (Tos.client t ~pid:1 ~name:"test" (fun () -> r := Tos.op_test t ~pid:1));
  run_ok t;
  Alcotest.(check int) "test before set" 0 !r

(* SET then TEST returns 1 for every tester (Observation 21(1)). *)
let test_set_then_test impl ~n ~f ~seed () =
  let t = Tos.make ~policy:(Policy.random ~seed) ~impl ~n ~f () in
  ignore (Tos.client t ~pid:0 ~name:"set" (fun () -> Tos.op_set t));
  run_ok t;
  for pid = 1 to n - 1 do
    let r = ref 0 in
    ignore
      (Tos.client t ~pid ~name:(Printf.sprintf "test%d" pid) (fun () ->
           r := Tos.op_test t ~pid));
    run_ok t;
    Alcotest.(check int) (Printf.sprintf "test at p%d after set" pid) 1 !r
  done;
  Alcotest.(check bool) "linearizable" true (Tos.byz_linearizable t)

(* Concurrent SET and TESTs: results are 0/1 and the history linearizes;
   relay (Observation 21(3)) holds by interval order. *)
let test_concurrent impl ~seed () =
  let n = 4 and f = 1 in
  let t = Tos.make ~policy:(Policy.random ~seed) ~impl ~n ~f () in
  ignore (Tos.client t ~pid:0 ~name:"set" (fun () -> Tos.op_set t));
  for pid = 1 to n - 1 do
    ignore
      (Tos.client t ~pid ~name:(Printf.sprintf "test%d" pid) (fun () ->
           ignore (Tos.op_test t ~pid);
           ignore (Tos.op_test t ~pid)))
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (Tos.byz_linearizable t)

(* A Byzantine setter (equivocating writer underneath) cannot make correct
   testers disagree in a non-linearizable way. *)
let test_byz_setter impl ~seed () =
  let n = 4 and f = 1 in
  let t =
    Tos.make ~policy:(Policy.random ~seed) ~impl ~n ~f ~byzantine:[ 0 ] ()
  in
  (match t.backend with
  | Tos.B_sticky (regs, _, _) ->
      ignore
        (Lnd_byz.Byz_sticky.spawn t.sched regs ~pid:0
           (Lnd_byz.Byz_script.Equivocating_writer
              { va = "1"; vb = "evil"; flip_after = 2 }))
  | Tos.B_verifiable (regs, _, _) ->
      ignore
        (Lnd_byz.Byz_verifiable.spawn t.sched regs ~pid:0
           (Lnd_byz.Byz_script.Denying_writer { v = "1"; deny_after = 2 })));
  for pid = 1 to n - 1 do
    ignore
      (Tos.client t ~pid ~name:(Printf.sprintf "test%d" pid) (fun () ->
           ignore (Tos.op_test t ~pid);
           ignore (Tos.op_test t ~pid)))
  done;
  run_ok t;
  Alcotest.(check bool)
    "linearizable with Byzantine setter" true (Tos.byz_linearizable t)

let for_both name mk =
  List.map
    (fun impl ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name (impl_name impl)) `Quick
        (mk impl))
    [ Tos.Sticky_based; Tos.Verifiable_based ]

let tests =
  List.concat
    [
      for_both "test before set" (fun impl -> test_unset impl);
      for_both "set then test n=4" (fun impl ->
          test_set_then_test impl ~n:4 ~f:1 ~seed:1);
      for_both "set then test n=7" (fun impl ->
          test_set_then_test impl ~n:7 ~f:2 ~seed:2);
      for_both "concurrent set/test (seed 3)" (fun impl ->
          test_concurrent impl ~seed:3);
      for_both "concurrent set/test (seed 4)" (fun impl ->
          test_concurrent impl ~seed:4);
      for_both "byzantine setter" (fun impl -> test_byz_setter impl ~seed:5);
    ]
