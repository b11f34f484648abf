(* Test-or-set from sticky and from verifiable registers (Observation 25):
   Observation 21 properties plus Byzantine linearizability, with correct
   and Byzantine setters. *)

module Diff = Lnd_parallel.Diff
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module History = Lnd_history.History
module Byz_script = Lnd_byz.Byz_script
module Quorum = Lnd_support.Quorum
module T = Lnd_history.Spec.Testorset_spec

(* One of Observation 25's constructions: its plan, its SET and TEST,
   and a Byzantine setter lying through the underlying register. *)
type 'reg impl = {
  name : string;
  plan :
    Quorum.t ->
    byzantine:int list ->
    scripts:(int * Byz_script.strategy) list ->
    ('reg, T.op, T.res) Diff.plan;
  set : Quorum.t -> ('reg, T.op, T.res) Diff.job;
  test : Quorum.t -> pid:int -> ('reg, T.op, T.res) Diff.job;
  liar : Byz_script.strategy;
}

type any = Any : 'reg impl -> any

let sticky_based =
  Any
    {
      name = "sticky";
      plan = Diff.testorset_sticky_plan;
      set = Diff.set_sticky;
      test = Diff.test_sticky;
      liar =
        Byz_script.Equivocating_writer { va = "1"; vb = "evil"; flip_after = 2 };
    }

let verifiable_based =
  Any
    {
      name = "verifiable";
      plan = Diff.testorset_verifiable_plan;
      set = (fun _ -> Diff.set_verifiable);
      test = Diff.test_verifiable;
      liar = Byz_script.Denying_writer { v = "1"; deny_after = 2 };
    }

let make i ~seed ~byzantine ~scripts ~n ~f =
  let q = Quorum.make_relaxed ~n ~f in
  (q, Diff.session (Policy.random ~seed) (i.plan q ~byzantine ~scripts))

let run_ok ?(max_steps = 4_000_000) (t : (_, T.op, T.res) Diff.session) =
  match Sched.run ~max_steps t.sched with
  | Sched.Quiescent ->
      List.iter
        (fun ((f : Sched.fiber), e) ->
          if t.correct.(f.Sched.pid) then
            Alcotest.failf "correct fiber %s failed: %s" f.Sched.fname
              (Printexc.to_string e))
        (Sched.failures t.sched)
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

(* The bit [pid]'s last completed TEST returned. *)
let last_bit (t : (_, T.op, T.res) Diff.session) pid =
  match
    List.rev
      (List.filter_map
         (fun (e : (T.op, T.res) History.entry) ->
           match e.ret with
           | Some (T.Bit b, _) when e.pid = pid -> Some b
           | _ -> None)
         (History.entries (t.history ())))
  with
  | b :: _ -> b
  | [] -> Alcotest.failf "p%d completed no TEST" pid

let byz_linearizable (t : (_, T.op, T.res) Diff.session) =
  Lnd_history.Byzlin.testorset ~setter:0
    ~correct:(fun pid -> t.correct.(pid))
    (t.history ())

(* TEST before any SET returns 0. *)
let test_unset (Any i) () =
  let q, t = make i ~seed:42 ~byzantine:[] ~scripts:[] ~n:4 ~f:1 in
  t.client ~pid:1 ~name:"test" [ i.test q ~pid:1 ];
  run_ok t;
  Alcotest.(check int) "test before set" 0 (last_bit t 1)

(* SET then TEST returns 1 for every tester (Observation 21(1)). *)
let test_set_then_test (Any i) ~n ~f ~seed () =
  let q, t = make i ~seed ~byzantine:[] ~scripts:[] ~n ~f in
  t.client ~pid:0 ~name:"set" [ i.set q ];
  run_ok t;
  for pid = 1 to n - 1 do
    t.client ~pid ~name:(Printf.sprintf "test%d" pid) [ i.test q ~pid ];
    run_ok t;
    Alcotest.(check int)
      (Printf.sprintf "test at p%d after set" pid)
      1 (last_bit t pid)
  done;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* Concurrent SET and TESTs: results are 0/1 and the history linearizes;
   relay (Observation 21(3)) holds by interval order. *)
let test_concurrent (Any i) ~seed () =
  let n = 4 and f = 1 in
  let q, t = make i ~seed ~byzantine:[] ~scripts:[] ~n ~f in
  t.client ~pid:0 ~name:"set" [ i.set q ];
  for pid = 1 to n - 1 do
    t.client ~pid
      ~name:(Printf.sprintf "test%d" pid)
      [ i.test q ~pid; i.test q ~pid ]
  done;
  run_ok t;
  Alcotest.(check bool) "linearizable" true (byz_linearizable t)

(* A Byzantine setter (equivocating or denying writer underneath)
   cannot make correct testers disagree in a non-linearizable way. *)
let test_byz_setter (Any i) ~seed () =
  let n = 4 and f = 1 in
  let q, t =
    make i ~seed ~byzantine:[ 0 ] ~scripts:[ (0, i.liar) ] ~n ~f
  in
  for pid = 1 to n - 1 do
    t.client ~pid
      ~name:(Printf.sprintf "test%d" pid)
      [ i.test q ~pid; i.test q ~pid ]
  done;
  run_ok t;
  Alcotest.(check bool)
    "linearizable with Byzantine setter" true (byz_linearizable t)

let for_both name mk =
  List.map
    (fun (Any i as impl) ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name i.name) `Quick
        (mk impl))
    [ sticky_based; verifiable_based ]

let tests =
  List.concat
    [
      for_both "test before set" test_unset;
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
