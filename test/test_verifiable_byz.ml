(* Adversarial behaviour of the verifiable register (Algorithm 1) with up
   to f Byzantine processes: Observations 11-13 and Theorem 14 under the
   attack strategies of lnd_byz. *)

module Sys = Lnd_verifiable.System
module Byz = Lnd_byz.Byz_verifiable
module Byz_script = Lnd_byz.Byz_script
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module V = Lnd_history.Spec.Verifiable_spec

let run_ok ?(max_steps = 4_000_000) (t : Sys.t) =
  match Sys.run ~max_steps t with
  | Sched.Quiescent ->
      List.iter
        (fun ((f : Sched.fiber), e) ->
          if t.correct.(f.Sched.pid) then
            Alcotest.failf "correct fiber %s failed: %s" f.Sched.fname
              (Printexc.to_string e))
        (Sched.failures t.sched)
  | Sched.Budget_exhausted ->
      Alcotest.fail "step budget exhausted (termination violated?)"
  | Sched.Condition_met -> ()

(* RELAY (Observation 13) over a recorded history: for every pair of
   completed VERIFY(v) operations by correct readers where the first
   returned true and precedes the second, the second must return true. *)
let check_relay (t : Sys.t) =
  let entries = History.complete_entries t.history in
  let verifies =
    List.filter_map
      (fun (e : (V.op, V.res) History.entry) ->
        if not t.correct.(e.pid) then None
        else
          match (e.op, e.ret) with
          | V.Verify v, Some (V.Verified b, rt) -> Some (v, b, e.inv, rt)
          | _ -> None)
      entries
  in
  List.iter
    (fun (v1, b1, _, rt1) ->
      List.iter
        (fun (v2, b2, inv2, _) ->
          if Lnd_support.Value.equal v1 v2 && b1 && rt1 < inv2 then
            Alcotest.(check bool)
              (Printf.sprintf "RELAY: VERIFY(%s)=true precedes VERIFY(%s)" v1
                 v2)
              true b2)
        verifies)
    verifies

(* UNFORGEABILITY: correct writer never signs "evil"; f colluders claim to
   witness it. No correct VERIFY("evil") may return true. *)
let test_unforgeability ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter
    (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                          (Byz_script.False_witness "evil")))
    byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "good";
         ignore (Sys.op_sign t "good")));
  let evil_results = ref [] in
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           let r = Sys.op_verify t ~pid "evil" in
           evil_results := r :: !evil_results))
  done;
  run_ok t;
  List.iter
    (fun r ->
      Alcotest.(check bool) "UNFORGEABILITY: verify of unsigned value" false r)
    !evil_results;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* VALIDITY under f instant naysayers: a signed value still verifies true
   for every correct reader. *)
let test_validity_vs_naysayers ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                                  Byz_script.Naysayer)) byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "v";
         ignore (Sys.op_sign t "v")));
  run_ok t;
  for pid = 1 to n - 1 - f do
    let r = ref false in
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           r := Sys.op_verify t ~pid "v"));
    run_ok t;
    Alcotest.(check bool)
      (Printf.sprintf "VALIDITY vs naysayers at p%d" pid)
      true !r
  done;
  check_relay t

(* RELAY under f vote-flipping colluders racing many concurrent verifies. *)
let test_relay_vs_flipflop ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter
    (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                          (Byz_script.Flipflop "x")))
    byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "x";
         ignore (Sys.op_sign t "x")));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "x");
           ignore (Sys.op_verify t ~pid "x")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* The title attack: a Byzantine writer signs, lets readers verify, then
   erases everything and denies. Relay and Byzantine linearizability must
   survive; every correct operation must terminate. *)
let test_lie_but_not_deny ~n ~f ~seed ~deny_after () =
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:0
            (Byz_script.Denying_writer { v = "lie"; deny_after }));
  for pid = 1 to n - 1 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "lie");
           ignore (Sys.op_verify t ~pid "lie")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool)
    "linearizable with faulty writer" true (Sys.byz_linearizable t)

(* A writer that signs without writing: correct readers may verify the
   value; the history must still be explainable (Byzantine
   linearizability), and relay must hold. *)
let test_sign_without_write ~seed () =
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:0
            (Byz_script.Sign_without_write "ghost"));
  for pid = 1 to n - 1 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "ghost")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* An equivocating writer pushing two values: relay must hold per value and
   the history must linearize (the writer may legitimately sign both). *)
let test_equivocating_writer ~seed () =
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:0
            (Byz_script.Equivocating_writer
               { va = "a"; vb = "b"; flip_after = 1 }));
  for pid = 1 to n - 1 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "a");
           ignore (Sys.op_verify t ~pid "b")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Ill-typed garbage from f processes: correct operations terminate and
   the history linearizes. *)
let test_garbage ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                                  Byz_script.Garbage)) byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "ok";
         ignore (Sys.op_sign t "ok")));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "ok");
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Stale-stamp replayers: old witness evidence with fresh timestamps must
   not break relay or linearizability. *)
let test_stale_replayer ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter
    (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                          Byz_script.Stale_replayer))
    byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "s";
         ignore (Sys.op_sign t "s")));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "s");
           ignore (Sys.op_verify t ~pid "s")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Selective responders starving odd-numbered readers: every VERIFY still
   terminates (the correct helpers answer everyone). *)
let test_selective_starvation ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter
    (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                          (Byz_script.Selective "s")))
    byz;
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "s";
         ignore (Sys.op_sign t "s")));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           (* odd readers are the starved ones; all must terminate *)
           ignore (Sys.op_verify t ~pid "s")))
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Crash faults are a special case of Byzantine: f processes that never
   take a single step. All correct operations must still terminate. *)
let test_crashed_processes ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  (* spawn nothing for the crashed pids *)
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "v";
         ignore (Sys.op_sign t "v")));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "v")))
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* A reader crashes mid-VERIFY: its operation stays incomplete in the
   history; Byzantine linearizability must still hold for the rest (the
   checker may drop or complete the pending op, Definition 2). *)
let test_reader_crash_mid_verify ~seed () =
  let n = 4 and f = 1 in
  (* p3 is the crasher: counts as the one Byzantine process *)
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 3 ] () in
  ignore
    (Sys.client t ~pid:0 ~name:"writer" (fun () ->
         Sys.op_write t "c";
         ignore (Sys.op_sign t "c")));
  (* the crasher still RUNS the protocol (it is not malicious, just
     doomed): give it a help daemon and a verify it will never finish *)
  ignore
    (Sched.spawn t.sched ~pid:3 ~name:"help3" ~daemon:true (fun () ->
         Lnd_verifiable.Verifiable.help t.regs ~pid:3));
  let victim =
    Sys.client t ~pid:3 ~name:"doomed" (fun () ->
        ignore (Sys.op_verify t ~pid:3 "c"))
  in
  (* let it take a few steps, then crash it *)
  ignore
    (Sys.run ~max_steps:200_000
       ~until:(fun sc -> Sched.steps sc > 50)
       t);
  Sched.kill victim;
  for pid = 1 to 2 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ignore (Sys.op_verify t ~pid "c")))
  done;
  run_ok t;
  Alcotest.(check bool)
    "incomplete op recorded" true
    (List.length (History.incomplete_entries t.history) <= 1);
  Alcotest.(check bool)
    "linearizable with crashed reader" true (Sys.byz_linearizable t)

let seeds = [ 101; 202; 303 ]

let tests =
  List.concat
    [
      List.map
        (fun s ->
          Alcotest.test_case
            (Printf.sprintf "unforgeability n=4 f=1 (seed %d)" s)
            `Quick
            (test_unforgeability ~n:4 ~f:1 ~seed:s))
        seeds;
      [
        Alcotest.test_case "unforgeability n=7 f=2" `Quick
          (test_unforgeability ~n:7 ~f:2 ~seed:7);
        Alcotest.test_case "unforgeability n=10 f=3" `Quick
          (test_unforgeability ~n:10 ~f:3 ~seed:8);
        Alcotest.test_case "validity vs naysayers n=4" `Quick
          (test_validity_vs_naysayers ~n:4 ~f:1 ~seed:21);
        Alcotest.test_case "validity vs naysayers n=7" `Quick
          (test_validity_vs_naysayers ~n:7 ~f:2 ~seed:22);
      ];
      List.map
        (fun s ->
          Alcotest.test_case
            (Printf.sprintf "relay vs flip-flop n=4 (seed %d)" s)
            `Quick
            (test_relay_vs_flipflop ~n:4 ~f:1 ~seed:s))
        seeds;
      [
        Alcotest.test_case "relay vs flip-flop n=7 f=2" `Quick
          (test_relay_vs_flipflop ~n:7 ~f:2 ~seed:31);
      ];
      List.map
        (fun s ->
          Alcotest.test_case
            (Printf.sprintf "lie-but-not-deny n=4 (seed %d)" s)
            `Quick
            (test_lie_but_not_deny ~n:4 ~f:1 ~seed:s ~deny_after:2))
        seeds;
      [
        Alcotest.test_case "lie-but-not-deny n=7 f=2" `Quick
          (test_lie_but_not_deny ~n:7 ~f:2 ~seed:41 ~deny_after:3);
        Alcotest.test_case "sign without write" `Quick
          (test_sign_without_write ~seed:51);
        Alcotest.test_case "equivocating writer" `Quick
          (test_equivocating_writer ~seed:61);
        Alcotest.test_case "garbage writers n=4" `Quick
          (test_garbage ~n:4 ~f:1 ~seed:71);
        Alcotest.test_case "garbage writers n=7" `Quick
          (test_garbage ~n:7 ~f:2 ~seed:72);
        Alcotest.test_case "crashed processes n=4" `Quick
          (test_crashed_processes ~n:4 ~f:1 ~seed:81);
        Alcotest.test_case "crashed processes n=7" `Quick
          (test_crashed_processes ~n:7 ~f:2 ~seed:82);
        Alcotest.test_case "stale replayer n=4" `Quick
          (test_stale_replayer ~n:4 ~f:1 ~seed:91);
        Alcotest.test_case "stale replayer n=7" `Quick
          (test_stale_replayer ~n:7 ~f:2 ~seed:92);
        Alcotest.test_case "selective starvation n=4" `Quick
          (test_selective_starvation ~n:4 ~f:1 ~seed:93);
        Alcotest.test_case "selective starvation n=7" `Quick
          (test_selective_starvation ~n:7 ~f:2 ~seed:94);
        Alcotest.test_case "reader crash mid-verify (seed 96)" `Quick
          (test_reader_crash_mid_verify ~seed:96);
        Alcotest.test_case "reader crash mid-verify (seed 97)" `Quick
          (test_reader_crash_mid_verify ~seed:97);
        (* larger configurations *)
        Alcotest.test_case "unforgeability n=13 f=4" `Slow
          (test_unforgeability ~n:13 ~f:4 ~seed:201);
        Alcotest.test_case "relay vs flip-flop n=10 f=3" `Slow
          (test_relay_vs_flipflop ~n:10 ~f:3 ~seed:202);
        Alcotest.test_case "lie-but-not-deny n=10 f=3" `Slow
          (test_lie_but_not_deny ~n:10 ~f:3 ~seed:203 ~deny_after:4);
        Alcotest.test_case "garbage n=10 f=3" `Slow
          (test_garbage ~n:10 ~f:3 ~seed:204);
      ];
    ]
