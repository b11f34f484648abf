(* Fault-free behaviour of the sticky register (Algorithm 2):
   Definition 15 and Observations 16-18 with all processes correct. *)

module Diff = Lnd_parallel.Diff
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module S = Lnd_history.Spec.Sticky_spec

let make ~seed ~n ~f =
  let q = Lnd_support.Quorum.make_relaxed ~n ~f in
  ( q,
    Diff.session (Policy.random ~seed)
      (Diff.sticky_plan q ~byzantine:[] ~scripts:[]) )

let run_ok ?(max_steps = 2_000_000) (t : (_, S.op, S.res) Diff.session) =
  match Sched.run ~max_steps t.sched with
  | Sched.Quiescent -> (
      match Sched.failures t.sched with
      | [] -> ()
      | (f, e) :: _ ->
          Alcotest.failf "fiber %s failed: %s" f.Sched.fname
            (Printexc.to_string e))
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

(* What [pid]'s completed READs returned, oldest first. *)
let reads (t : (_, S.op, S.res) Diff.session) pid =
  List.filter_map
    (fun (e : (S.op, S.res) History.entry) ->
      match e.ret with
      | Some (S.Val v, _) when e.pid = pid -> Some v
      | _ -> None)
    (History.entries (t.history ()))

let last_read t pid =
  match List.rev (reads t pid) with
  | v :: _ -> v
  | [] -> Alcotest.failf "p%d completed no READ" pid

let byz_linearizable (t : (_, S.op, S.res) Diff.session) =
  Lnd_history.Byzlin.sticky ~writer:0
    ~correct:(fun pid -> t.correct.(pid))
    (t.history ())

let vopt = Alcotest.(option string)

(* VALIDITY (Observation 16): after WRITE(v) completes, every read
   returns v. *)
let test_write_then_read ~n ~f ~seed () =
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "v" ];
  run_ok t;
  for pid = 1 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ];
    run_ok t;
    Alcotest.check vopt (Printf.sprintf "read at p%d" pid) (Some "v")
      (last_read t pid)
  done

(* A read with no write returns ⊥. *)
let test_read_bot () =
  let q, t = make ~seed:42 ~n:4 ~f:1 in
  t.client ~pid:1 ~name:"r1" [ Diff.read_sticky q ~pid:1 ];
  run_ok t;
  Alcotest.check vopt "read of unwritten register" None (last_read t 1)

(* Stickiness: a second WRITE does not change the value. *)
let test_second_write_ignored () =
  let q, t = make ~seed:42 ~n:4 ~f:1 in
  t.client ~pid:0 ~name:"writer"
    [ Diff.write_sticky q "first"; Diff.write_sticky q "second" ];
  run_ok t;
  t.client ~pid:2 ~name:"r2" [ Diff.read_sticky q ~pid:2 ];
  run_ok t;
  Alcotest.check vopt "sticky keeps first value" (Some "first") (last_read t 2)

(* UNIQUENESS (Observation 18): concurrent reads under many schedules
   agree — never two different non-⊥ values. *)
let test_uniqueness_concurrent ~seed () =
  let n = 4 and f = 1 in
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "u" ];
  for pid = 1 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ]
  done;
  run_ok t;
  List.iter
    (fun pid ->
      List.iter
        (Option.iter (Alcotest.(check string) "all non-⊥ reads agree" "u"))
        (reads t pid))
    [ 1; 2; 3 ];
  Alcotest.(check bool)
    "history linearizable (correct writer)" true (byz_linearizable t)

(* Reads racing the write may see ⊥ or v, but the recorded history must be
   linearizable: no ⊥-read after a v-read. *)
let test_linearizable_race ~seed () =
  let n = 7 and f = 2 in
  let q, t = make ~seed ~n ~f in
  t.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "w" ];
  for pid = 1 to 4 do
    t.client ~pid
      ~name:(Printf.sprintf "r%d" pid)
      [ Diff.read_sticky q ~pid; Diff.read_sticky q ~pid ]
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

let test_termination_sizes () =
  List.iter
    (fun (n, f) ->
      let q, t = make ~seed:(n * 31) ~n ~f in
      t.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "v" ];
      for pid = 1 to min 4 (n - 1) do
        t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ]
      done;
      run_ok ~max_steps:5_000_000 t)
    [ (4, 1); (7, 2); (10, 3); (13, 4) ]

let tests =
  [
    Alcotest.test_case "write then read n=4" `Quick
      (test_write_then_read ~n:4 ~f:1 ~seed:1);
    Alcotest.test_case "write then read n=7" `Quick
      (test_write_then_read ~n:7 ~f:2 ~seed:2);
    Alcotest.test_case "write then read n=10" `Quick
      (test_write_then_read ~n:10 ~f:3 ~seed:3);
    Alcotest.test_case "read of unwritten is bot" `Quick test_read_bot;
    Alcotest.test_case "second write ignored" `Quick
      test_second_write_ignored;
    Alcotest.test_case "uniqueness under race (seed 4)" `Quick
      (test_uniqueness_concurrent ~seed:4);
    Alcotest.test_case "uniqueness under race (seed 5)" `Quick
      (test_uniqueness_concurrent ~seed:5);
    Alcotest.test_case "uniqueness under race (seed 6)" `Quick
      (test_uniqueness_concurrent ~seed:6);
    Alcotest.test_case "linearizable race (seed 7)" `Quick
      (test_linearizable_race ~seed:7);
    Alcotest.test_case "linearizable race (seed 8)" `Quick
      (test_linearizable_race ~seed:8);
    Alcotest.test_case "termination across sizes" `Slow
      test_termination_sizes;
  ]
