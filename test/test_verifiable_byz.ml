(* Adversarial behaviour of the verifiable register (Algorithm 1) with up
   to f Byzantine processes: Observations 11-13 and Theorem 14 under the
   attack strategies of lnd_byz. *)

module Diff = Lnd_parallel.Diff
module Byz_script = Lnd_byz.Byz_script
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module V = Lnd_history.Spec.Verifiable_spec

type session = (Lnd_verifiable.Verifiable_core.reg, V.op, V.res) Diff.session

(* The pids in [byzantine] faulty, each in [scripts] running its
   strategy and the rest crashed. *)
let make ~seed ~n ~f ~byzantine scripts =
  let q = Lnd_support.Quorum.make_relaxed ~n ~f in
  ( q,
    Diff.session (Policy.random ~seed)
      (Diff.verifiable_plan q ~byzantine ~scripts) )

(* The last f pids, each running [strategy] ([None]: crashed). *)
let colluders ~n ~f strategy =
  let byz = List.init f (fun i -> n - 1 - i) in
  ( byz,
    match strategy with
    | None -> []
    | Some s -> List.map (fun pid -> (pid, s)) byz )

let run_ok ?(max_steps = 4_000_000) (t : session) =
  match Sched.run ~max_steps t.sched with
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

let byz_linearizable (t : session) =
  Lnd_history.Byzlin.verifiable ~writer:0
    ~correct:(fun pid -> t.correct.(pid))
    (t.history ())

let write_sign v = [ Diff.write_verifiable v; Diff.sign v ]

(* What [pid]'s completed VERIFYs returned, oldest first. *)
let verifies (t : session) pid =
  List.filter_map
    (fun (e : (V.op, V.res) History.entry) ->
      match e.ret with
      | Some (V.Verified b, _) when e.pid = pid -> Some b
      | _ -> None)
    (History.entries (t.history ()))

(* RELAY (Observation 13) over a recorded history: for every pair of
   completed VERIFY(v) operations by correct readers where the first
   returned true and precedes the second, the second must return true. *)
let check_relay (t : session) =
  let entries = History.complete_entries (t.history ()) in
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
  let byzantine, scripts =
    colluders ~n ~f (Some (Byz_script.False_witness "evil"))
  in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "good");
  for pid = 1 to n - 1 - f do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "evil" ]
  done;
  run_ok t;
  for pid = 1 to n - 1 - f do
    List.iter
      (Alcotest.(check bool) "UNFORGEABILITY: verify of unsigned value" false)
      (verifies t pid)
  done;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* VALIDITY under f instant naysayers: a signed value still verifies true
   for every correct reader. *)
let test_validity_vs_naysayers ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f (Some Byz_script.Naysayer) in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "v");
  run_ok t;
  for pid = 1 to n - 1 - f do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "v" ];
    run_ok t;
    Alcotest.(check (list bool))
      (Printf.sprintf "VALIDITY vs naysayers at p%d" pid)
      [ true ] (verifies t pid)
  done;
  check_relay t

(* Each correct reader 1 .. n-1-f verifies every value of [vs], in
   order, in one client; then relay and Byzantine linearizability. *)
let verifiers_then_check q (t : session) ~n ~f vs =
  for pid = 1 to n - 1 - f do
    t.client ~pid
      ~name:(Printf.sprintf "v%d" pid)
      (List.map (Diff.verify q ~pid) vs)
  done;
  run_ok t;
  check_relay t

(* RELAY under f vote-flipping colluders racing many concurrent verifies. *)
let test_relay_vs_flipflop ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f (Some (Byz_script.Flipflop "x")) in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "x");
  verifiers_then_check q t ~n ~f [ "x"; "x" ];
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* The title attack: a Byzantine writer signs, lets readers verify, then
   erases everything and denies. Relay and Byzantine linearizability must
   survive; every correct operation must terminate. *)
let test_lie_but_not_deny ~n ~f ~seed ~deny_after () =
  let q, t =
    make ~seed ~n ~f ~byzantine:[ 0 ]
      [ (0, Byz_script.Denying_writer { v = "lie"; deny_after }) ]
  in
  verifiers_then_check q t ~n ~f:0 [ "lie"; "lie" ];
  Alcotest.(check bool)
    "linearizable with faulty writer" true (byz_linearizable t)

(* A writer that signs without writing: correct readers may verify the
   value; the history must still be explainable (Byzantine
   linearizability), and relay must hold. *)
let test_sign_without_write ~seed () =
  let n = 4 and f = 1 in
  let q, t =
    make ~seed ~n ~f ~byzantine:[ 0 ]
      [ (0, Byz_script.Sign_without_write "ghost") ]
  in
  verifiers_then_check q t ~n ~f:0 [ "ghost" ];
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* An equivocating writer pushing two values: relay must hold per value and
   the history must linearize (the writer may legitimately sign both). *)
let test_equivocating_writer ~seed () =
  let n = 4 and f = 1 in
  let q, t =
    make ~seed ~n ~f ~byzantine:[ 0 ]
      [
        ( 0,
          Byz_script.Equivocating_writer { va = "a"; vb = "b"; flip_after = 1 }
        );
      ]
  in
  verifiers_then_check q t ~n ~f:0 [ "a"; "b" ];
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Ill-typed garbage from f processes: correct operations terminate and
   the history linearizes. *)
let test_garbage ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f (Some Byz_script.Garbage) in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "ok");
  for pid = 1 to n - 1 - f do
    t.client ~pid
      ~name:(Printf.sprintf "v%d" pid)
      [ Diff.verify q ~pid "ok"; Diff.read_verifiable ]
  done;
  run_ok t;
  check_relay t;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Stale-stamp replayers: old witness evidence with fresh timestamps must
   not break relay or linearizability. *)
let test_stale_replayer ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f (Some Byz_script.Stale_replayer) in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "s");
  verifiers_then_check q t ~n ~f [ "s"; "s" ];
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Selective responders starving odd-numbered readers: every VERIFY still
   terminates (the correct helpers answer everyone). *)
let test_selective_starvation ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f (Some (Byz_script.Selective "s")) in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "s");
  (* odd readers are the starved ones; all must terminate *)
  verifiers_then_check q t ~n ~f [ "s" ];
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Crash faults are a special case of Byzantine: f processes that never
   take a single step. All correct operations must still terminate. *)
let test_crashed_processes ~n ~f ~seed () =
  let byzantine, scripts = colluders ~n ~f None in
  let q, t = make ~seed ~n ~f ~byzantine scripts in
  t.client ~pid:0 ~name:"writer" (write_sign "v");
  for pid = 1 to n - 1 - f do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "v" ]
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* A reader crashes mid-VERIFY: its operation stays incomplete in the
   history; Byzantine linearizability must still hold for the rest (the
   checker may drop or complete the pending op, Definition 2). *)
let test_reader_crash_mid_verify ~seed () =
  let n = 4 and f = 1 in
  (* p3 is the crasher: counts as the one Byzantine process *)
  let q, t = make ~seed ~n ~f ~byzantine:[ 3 ] [] in
  t.client ~pid:0 ~name:"writer" (write_sign "c");
  (* the crasher still RUNS the protocol (it is not malicious, just
     doomed): give it a help daemon and a verify it will never finish *)
  t.daemon ~pid:3 ~name:"help3"
    (Lnd_verifiable.Verifiable_core.help_prog ~n ~q ~pid:3);
  t.client ~pid:3 ~name:"doomed" [ Diff.verify q ~pid:3 "c" ];
  (* let it take a few steps, then crash it *)
  ignore
    (Sched.run ~max_steps:200_000
       ~until:(fun sc -> Sched.steps sc > 50)
       t.sched);
  Sched.kill
    (List.find (fun (fb : Sched.fiber) -> fb.fname = "doomed") t.sched.fibers);
  for pid = 1 to 2 do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "c" ]
  done;
  run_ok t;
  Alcotest.(check bool)
    "incomplete op recorded" true
    (List.length (History.incomplete_entries (t.history ())) <= 1);
  Alcotest.(check bool)
    "linearizable with crashed reader" true (byz_linearizable t)

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
