(* Fault-free behaviour of the verifiable register (Algorithm 1):
   Definition 10 semantics and Observations 11-13 with all processes
   correct, across system sizes and schedules. *)

open Lnd_support
module Diff = Lnd_parallel.Diff
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module V = Lnd_history.Spec.Verifiable_spec

let make ~seed ~n ~f =
  let q = Quorum.make_relaxed ~n ~f in
  ( q,
    Diff.session (Policy.random ~seed)
      (Diff.verifiable_plan q ~byzantine:[] ~scripts:[]) )

let run_ok ?(max_steps = 2_000_000) (t : (_, V.op, V.res) Diff.session) =
  match Sched.run ~max_steps t.sched with
  | Sched.Quiescent -> (
      match Sched.failures t.sched with
      | [] -> ()
      | (f, e) :: _ ->
          Alcotest.failf "fiber %s failed: %s" f.Sched.fname
            (Printexc.to_string e))
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

(* The results of [pid]'s completed operations, oldest first. *)
let results (t : (_, V.op, V.res) Diff.session) pid =
  List.filter_map
    (fun (e : (V.op, V.res) History.entry) ->
      if e.pid = pid then Option.map fst e.ret else None)
    (History.entries (t.history ()))

let last_result t pid =
  match List.rev (results t pid) with
  | r :: _ -> r
  | [] -> Alcotest.failf "p%d completed no operation" pid

let verified t pid =
  match last_result t pid with
  | V.Verified b -> b
  | _ -> Alcotest.failf "p%d's last operation was no VERIFY" pid

let byz_linearizable (t : (_, V.op, V.res) Diff.session) =
  Lnd_history.Byzlin.verifiable ~writer:0
    ~correct:(fun pid -> t.correct.(pid))
    (t.history ())

let test_write_read_basic () =
  let _, t = make ~seed:42 ~n:4 ~f:1 in
  t.client ~pid:0 ~name:"writer"
    [ Diff.write_verifiable "a"; Diff.write_verifiable "b" ];
  t.client ~pid:1 ~name:"reader" [ Diff.read_verifiable ];
  run_ok t;
  match last_result t 1 with
  | V.Val v ->
      Alcotest.(check bool)
        "read returns v0, a or b" true
        (List.mem v [ Value.v0; "a"; "b" ])
  | _ -> Alcotest.fail "read did not complete"

let test_sign_then_verify ~n ~f ~seed () =
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_verifiable "a"; Diff.sign "a" ];
  run_ok t;
  if last_result t 0 <> V.Signed true then
    Alcotest.fail "sign of written value failed";
  (* readers verify only after the sign completed *)
  for pid = 1 to n - 1 do
    t.client ~pid
      ~name:(Printf.sprintf "verifier%d" pid)
      [ Diff.verify q ~pid "a" ]
  done;
  run_ok t;
  for pid = 1 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "VALIDITY: verify after sign at p%d" pid)
      true (verified t pid)
  done

(* VERIFY of a value that was never signed returns false (Definition 10 /
   Observation 12 with a correct writer). *)
let test_verify_unsigned () =
  let q, t = make ~seed:42 ~n:4 ~f:1 in
  (* written but never signed *)
  t.client ~pid:0 ~name:"writer" [ Diff.write_verifiable "a" ];
  t.client ~pid:2 ~name:"verifier" [ Diff.verify q ~pid:2 "a" ];
  run_ok t;
  Alcotest.(check bool) "verify of unsigned value is false" false
    (verified t 2)

(* SIGN of a value never written fails. *)
let test_sign_unwritten () =
  let _, t = make ~seed:42 ~n:4 ~f:1 in
  t.client ~pid:0 ~name:"writer" [ Diff.write_verifiable "a"; Diff.sign "zz" ];
  run_ok t;
  Alcotest.(check bool) "sign of unwritten value fails" true
    (last_result t 0 = V.Signed false)

(* Writer may sign an old value it overwrote (Section 4: "it is allowed to
   sign any of the values that it previously wrote, even older ones"). *)
let test_sign_old_value () =
  let q, t = make ~seed:42 ~n:4 ~f:1 in
  t.client ~pid:0 ~name:"writer"
    [
      Diff.write_verifiable "old"; Diff.write_verifiable "new"; Diff.sign "old";
    ];
  run_ok t;
  t.client ~pid:3 ~name:"verifier" [ Diff.verify q ~pid:3 "old" ];
  run_ok t;
  Alcotest.(check bool) "sign old value succeeds" true
    (last_result t 0 = V.Signed true);
  Alcotest.(check bool) "verify old value succeeds" true (verified t 3)

(* RELAY (Observation 13): once a verify returns true, later verifies of
   the same value return true, across readers and schedules. *)
let test_relay_sequential ~seed () =
  let n = 7 and f = 2 in
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_verifiable "x"; Diff.sign "x" ];
  run_ok t;
  t.client ~pid:1 ~name:"v1" [ Diff.verify q ~pid:1 "x" ];
  run_ok t;
  Alcotest.(check bool) "first verify true" true (verified t 1);
  for pid = 2 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "x" ];
    run_ok t;
    Alcotest.(check bool) (Printf.sprintf "RELAY at p%d" pid) true
      (verified t pid)
  done

(* Concurrent verifies racing the sign: whatever each returns, the
   recorded history must be linearizable (writer correct case of
   Theorem 91). *)
let test_concurrent_verify_linearizable ~seed () =
  let n = 4 and f = 1 in
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_verifiable "a"; Diff.sign "a" ];
  for pid = 1 to n - 1 do
    t.client ~pid
      ~name:(Printf.sprintf "v%d" pid)
      [ Diff.verify q ~pid "a"; Diff.verify q ~pid "a" ]
  done;
  run_ok t;
  Alcotest.(check bool)
    "history linearizable (correct writer)" true (byz_linearizable t)

(* Multiple values, interleaved writes/signs/verifies, many seeds. *)
let test_multivalue ~seed () =
  let n = 4 and f = 1 in
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer"
    [
      Diff.write_verifiable "a";
      Diff.sign "a";
      Diff.write_verifiable "b";
      Diff.sign "b";
      Diff.write_verifiable "c";
    ];
  for pid = 1 to n - 1 do
    t.client ~pid
      ~name:(Printf.sprintf "v%d" pid)
      [ Diff.verify q ~pid "a"; Diff.verify q ~pid "c"; Diff.read_verifiable ]
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Multivalue stress: many values signed and verified concurrently; the
   streaming monitors must accept the (large) history. *)
let test_multivalue_stress ~seed () =
  let n = 4 and f = 1 in
  let q, t = make ~seed ~n ~f in
  let values = [ "v1"; "v2"; "v3"; "v4"; "v5" ] in
  t.client ~pid:0 ~name:"writer"
    (List.concat_map (fun v -> [ Diff.write_verifiable v; Diff.sign v ]) values);
  for pid = 1 to n - 1 do
    (* each reader verifies every value, in a pid-dependent order *)
    let order = if pid mod 2 = 0 then values else List.rev values in
    t.client ~pid
      ~name:(Printf.sprintf "v%d" pid)
      (List.map (Diff.verify q ~pid) (order @ [ "never-signed" ]))
  done;
  run_ok ~max_steps:8_000_000 t;
  let h = t.history () in
  let correct _ = true in
  (match
     Lnd_history.Monitors.check_all
       (Lnd_history.Monitors.relay ~correct h
       @ Lnd_history.Monitors.validity ~correct h
       @ Lnd_history.Monitors.unforgeability ~correct ~writer:0 h)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "monitor violation: %s" msg);
  (* never-signed value must be false everywhere *)
  List.iter
    (fun (e : (V.op, V.res) History.entry) ->
      match (e.op, e.ret) with
      | V.Verify "never-signed", Some (V.Verified r, _) ->
          Alcotest.(check bool) "never-signed rejected" false r
      | _ -> ())
    (History.complete_entries h)

(* Termination across sizes: every operation completes under a fair random
   scheduler (Theorem 40), including at larger n. *)
let test_termination_sizes () =
  List.iter
    (fun (n, f) ->
      let q, t = make ~seed:(n * 17) ~n ~f in
      t.client ~pid:0 ~name:"writer"
        [ Diff.write_verifiable "v"; Diff.sign "v" ];
      for pid = 1 to min 4 (n - 1) do
        t.client ~pid ~name:(Printf.sprintf "v%d" pid) [ Diff.verify q ~pid "v" ]
      done;
      run_ok ~max_steps:5_000_000 t)
    [ (4, 1); (7, 2); (10, 3); (13, 4) ]

let tests =
  [
    Alcotest.test_case "write/read basic" `Quick test_write_read_basic;
    Alcotest.test_case "sign then verify n=4" `Quick
      (test_sign_then_verify ~n:4 ~f:1 ~seed:1);
    Alcotest.test_case "sign then verify n=7" `Quick
      (test_sign_then_verify ~n:7 ~f:2 ~seed:2);
    Alcotest.test_case "sign then verify n=10" `Quick
      (test_sign_then_verify ~n:10 ~f:3 ~seed:3);
    Alcotest.test_case "verify unsigned is false" `Quick test_verify_unsigned;
    Alcotest.test_case "sign unwritten fails" `Quick test_sign_unwritten;
    Alcotest.test_case "sign old value" `Quick test_sign_old_value;
    Alcotest.test_case "relay across readers" `Quick
      (test_relay_sequential ~seed:11);
    Alcotest.test_case "concurrent verifies linearizable (seed 5)" `Quick
      (test_concurrent_verify_linearizable ~seed:5);
    Alcotest.test_case "concurrent verifies linearizable (seed 6)" `Quick
      (test_concurrent_verify_linearizable ~seed:6);
    Alcotest.test_case "concurrent verifies linearizable (seed 7)" `Quick
      (test_concurrent_verify_linearizable ~seed:7);
    Alcotest.test_case "multivalue interleaving (seed 8)" `Quick
      (test_multivalue ~seed:8);
    Alcotest.test_case "multivalue interleaving (seed 9)" `Quick
      (test_multivalue ~seed:9);
    Alcotest.test_case "multivalue stress (seed 15)" `Quick
      (test_multivalue_stress ~seed:15);
    Alcotest.test_case "multivalue stress (seed 16)" `Quick
      (test_multivalue_stress ~seed:16);
    Alcotest.test_case "termination across sizes" `Slow
      test_termination_sizes;
  ]
