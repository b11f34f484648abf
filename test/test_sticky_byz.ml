(* Adversarial behaviour of the sticky register (Algorithm 2):
   Observations 16-18 and Theorem 19 under the strategies of lnd_byz. *)

module Sys = Lnd_sticky.System
module Byz = Lnd_byz.Byz_sticky
module Byz_script = Lnd_byz.Byz_script
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module S = Lnd_history.Spec.Sticky_spec

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

(* UNIQUENESS (Observation 18) over a recorded history: if a correct READ
   returned v ≠ ⊥ and precedes another correct READ, the later READ also
   returns v; and no two correct reads return different non-⊥ values. *)
let check_uniqueness (t : Sys.t) =
  let reads =
    List.filter_map
      (fun (e : (S.op, S.res) History.entry) ->
        if not t.correct.(e.pid) then None
        else
          match (e.op, e.ret) with
          | S.Read, Some (S.Val r, rt) -> Some (r, e.inv, rt)
          | _ -> None)
      (History.complete_entries t.history)
  in
  (* agreement *)
  let non_bot = List.filter_map (fun (r, _, _) -> r) reads in
  (match non_bot with
  | [] -> ()
  | v :: rest ->
      List.iter
        (fun v' -> Alcotest.(check string) "reads agree" v v')
        rest);
  (* temporal stickiness *)
  List.iter
    (fun (r1, _, rt1) ->
      List.iter
        (fun (r2, inv2, _) ->
          match r1 with
          | Some _ when rt1 < inv2 ->
              Alcotest.(check bool)
                "UNIQUENESS: non-⊥ read not followed by ⊥ read" true
                (r2 <> None)
          | _ -> ())
        reads)
    reads

(* Equivocating Byzantine writer pushing two values: correct readers must
   never disagree. *)
let test_equivocation ~n ~f ~seed () =
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  ignore
    (Byz.spawn t.sched t.regs ~pid:0
       (Byz_script.Equivocating_writer { va = "a"; vb = "b"; flip_after = 3 }));
  for pid = 1 to n - 1 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool)
    "linearizable with faulty writer" true (Sys.byz_linearizable t)

(* Split collusion: the writer equivocates and f-1 colluders back the
   second value. Still no disagreement among correct readers. *)
let test_equivocation_with_colluders ~seed () =
  let n = 7 and f = 2 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0; 6 ] () in
  ignore
    (Byz.spawn t.sched t.regs ~pid:0
       (Byz_script.Equivocating_writer { va = "a"; vb = "b"; flip_after = 2 }));
  ignore (Byz.spawn t.sched t.regs ~pid:6 (Byz_script.False_witness "b"));
  for pid = 1 to 5 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Denying writer: writes, lets the value spread, then erases its echo
   register. Stickiness must survive the denial. *)
let test_deny ~n ~f ~seed () =
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:0
            (Byz_script.Denying_writer { v = "kept"; deny_after = 4 }));
  for pid = 1 to n - 1 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* f colluders fabricate a value nobody wrote: no correct read may return
   it (UNFORGEABILITY, Observation 17). *)
let test_fabricated_value ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter
    (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                          (Byz_script.False_witness "fake")))
    byz;
  let results = ref [] in
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           results := Sys.op_read t ~pid :: !results))
  done;
  run_ok t;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "UNFORGEABILITY: fabricated value never read" true (r <> Some "fake"))
    !results;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Correct writer vs f naysayers: WRITE completes and later reads return
   the value (VALIDITY, Observation 16). *)
let test_validity_vs_naysayers ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                                  Byz_script.Naysayer)) byz;
  ignore (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "v"));
  run_ok t;
  for pid = 1 to n - 1 - f do
    let got = ref None in
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           got := Sys.op_read t ~pid));
    run_ok t;
    Alcotest.(check (option string))
      (Printf.sprintf "VALIDITY vs naysayers at p%d" pid)
      (Some "v") !got
  done

(* Flip-flopping colluders racing concurrent reads. *)
let test_flipflop ~seed () =
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 3 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:3 (Byz_script.Flipflop "w"));
  ignore (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "w"));
  for pid = 1 to 2 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Garbage writers: correct operations terminate and linearize. *)
let test_garbage ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  List.iter (fun pid -> ignore (Byz.spawn t.sched t.regs ~pid
                                  Byz_script.Garbage)) byz;
  ignore (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "g"));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Crashed processes (a special case of Byzantine). *)
let test_crashed ~n ~f ~seed () =
  let byz = List.init f (fun i -> n - 1 - i) in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:byz () in
  ignore (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "c"));
  for pid = 1 to n - 1 - f do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* Stale replayer: frozen first-observation answers with fresh stamps
   must not break uniqueness or linearizability. *)
let test_stale_replayer ~seed () =
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 3 ] () in
  ignore (Byz.spawn t.sched t.regs ~pid:3 Byz_script.Stale_replayer);
  ignore (Sys.client t ~pid:0 ~name:"writer" (fun () -> Sys.op_write t "z"));
  for pid = 1 to 2 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool) "linearizable" true (Sys.byz_linearizable t)

(* The writer crashes mid-WRITE (during its witness wait): readers must
   still agree (they may all see the value or all see ⊥-then-value, but
   never disagree), and the history must linearize with the writer
   treated as faulty (crash ⊂ Byzantine). *)
let test_writer_crash_mid_write ~seed () =
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed) ~n ~f ~byzantine:[ 0 ] () in
  (* the crasher runs the real protocol until it dies *)
  ignore
    (Sched.spawn t.sched ~pid:0 ~name:"help0" ~daemon:true (fun () ->
         Lnd_sticky.Sticky.help t.regs ~pid:0));
  let victim =
    Sched.spawn t.sched ~pid:0 ~name:"doomed-writer" (fun () ->
        Lnd_sticky.Sticky.write t.writer "w")
  in
  ignore
    (Sys.run ~max_steps:200_000
       ~until:(fun sc -> Sched.steps sc > 30)
       t);
  Sched.kill victim;
  for pid = 1 to 3 do
    ignore
      (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
           ignore (Sys.op_read t ~pid);
           ignore (Sys.op_read t ~pid)))
  done;
  run_ok t;
  check_uniqueness t;
  Alcotest.(check bool)
    "linearizable with crashed writer" true (Sys.byz_linearizable t)

let seeds = [ 11; 22; 33 ]

let tests =
  List.concat
    [
      List.map
        (fun s ->
          Alcotest.test_case
            (Printf.sprintf "equivocation n=4 (seed %d)" s)
            `Quick
            (test_equivocation ~n:4 ~f:1 ~seed:s))
        seeds;
      [
        Alcotest.test_case "equivocation n=7 f=2" `Quick
          (test_equivocation ~n:7 ~f:2 ~seed:44);
        Alcotest.test_case "equivocation with colluders" `Quick
          (test_equivocation_with_colluders ~seed:55);
      ];
      List.map
        (fun s ->
          Alcotest.test_case (Printf.sprintf "deny n=4 (seed %d)" s) `Quick
            (test_deny ~n:4 ~f:1 ~seed:s))
        seeds;
      [
        Alcotest.test_case "deny n=7 f=2" `Quick (test_deny ~n:7 ~f:2 ~seed:66);
        Alcotest.test_case "fabricated value n=4" `Quick
          (test_fabricated_value ~n:4 ~f:1 ~seed:77);
        Alcotest.test_case "fabricated value n=7" `Quick
          (test_fabricated_value ~n:7 ~f:2 ~seed:78);
        Alcotest.test_case "validity vs naysayers n=4" `Quick
          (test_validity_vs_naysayers ~n:4 ~f:1 ~seed:88);
        Alcotest.test_case "validity vs naysayers n=7" `Quick
          (test_validity_vs_naysayers ~n:7 ~f:2 ~seed:89);
        Alcotest.test_case "flip-flop colluder" `Quick (test_flipflop ~seed:99);
        Alcotest.test_case "garbage n=4" `Quick (test_garbage ~n:4 ~f:1 ~seed:111);
        Alcotest.test_case "garbage n=7" `Quick (test_garbage ~n:7 ~f:2 ~seed:112);
        Alcotest.test_case "crashed n=4" `Quick (test_crashed ~n:4 ~f:1 ~seed:121);
        Alcotest.test_case "crashed n=7" `Quick (test_crashed ~n:7 ~f:2 ~seed:122);
        Alcotest.test_case "stale replayer (seed 141)" `Quick
          (test_stale_replayer ~seed:141);
        Alcotest.test_case "stale replayer (seed 142)" `Quick
          (test_stale_replayer ~seed:142);
        Alcotest.test_case "writer crash mid-write (seed 131)" `Quick
          (test_writer_crash_mid_write ~seed:131);
        Alcotest.test_case "writer crash mid-write (seed 132)" `Quick
          (test_writer_crash_mid_write ~seed:132);
        Alcotest.test_case "writer crash mid-write (seed 133)" `Quick
          (test_writer_crash_mid_write ~seed:133);
        (* larger configurations *)
        Alcotest.test_case "equivocation n=10 f=3" `Slow
          (test_equivocation ~n:10 ~f:3 ~seed:211);
        Alcotest.test_case "deny n=10 f=3" `Slow
          (test_deny ~n:10 ~f:3 ~seed:212);
        Alcotest.test_case "fabricated value n=13 f=4" `Slow
          (test_fabricated_value ~n:13 ~f:4 ~seed:213);
      ];
    ]
