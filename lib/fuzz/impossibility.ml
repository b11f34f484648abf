(* Executable rendition of Theorem 23 (Figures 1-3).

   The paper proves that no correct test-or-set implementation from SWMR
   registers exists when 3 <= n <= 3f, by an indistinguishability argument
   over three histories H1/H2/H3 in which the coalition {s} ∪ Q1 resets
   its registers to their initial values after a TEST by p_a returned 1.

   Here we run that adversary against the test-or-set built from either
   register (Observation 25), instantiated *deliberately* at n = 3f —
   outside the n > 3f requirement — as a session of the construction's
   plan (Lnd_parallel.Diff), whose judge decides the outcome:

     phase 1  (H1)  s performs SET with {s, p_a} ∪ Q1 ∪ Q2 scheduled;
     phase 2  (H1)  p_a performs TEST  — returns 1;
     phase 3  (H2)  {s} ∪ Q1 turn Byzantine: they reset every register
                    they own to its initial value ("deny");
     phase 4  (H2)  {p_b} ∪ Q3 wake up; the coalition keeps answering
                    "no" to all inquiries; p_b performs TEST'.

   At n = 3f the attack makes TEST' return 0 after TEST returned 1 — the
   relay property of Lemma 22(3) is violated, as the theorem predicts.
   At n = 3f + 1 the same adversary is powerless: TEST' returns 1.

   (The paper's H2 coalition goes mute after the reset, which makes TEST'
   *hang* rather than return 0 under Algorithm 1; actively answering "no"
   is within the coalition's Byzantine powers and surfaces the violation
   as a wrong return value instead of a non-termination — both contradict
   correctness per Definition 9.) *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
open Lnd_history
open Lnd_byz
module Diff = Lnd_parallel.Diff
module Tspec = Spec.Testorset_spec

type impl = Via_verifiable | Via_sticky

type outcome = {
  n : int;
  f : int;
  test_a : int; (* TEST by p_a after SET completes *)
  test_b : int; (* TEST' by p_b after the deny phase *)
  relay_violated : bool; (* the plan's judge rejected the history *)
  steps : int;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "n=%d f=%d: TEST(p_a)=%d, TEST'(p_b)=%d — %s" o.n o.f o.test_a o.test_b
    (if o.relay_violated then "RELAY VIOLATED (as Theorem 23 predicts for n <= 3f)"
     else "attack failed (n > 3f: Theorem 14 regime)")

exception Phase_stuck of string

(* Partition of {3..n-1}: Q1 joins the Byzantine coalition (|Q1| = f-1),
   Q3 sleeps until phase 4 (|Q3| = f-1), Q2 is correct throughout. *)
let partition ~n ~f =
  let rest = List.init (max 0 (n - 3)) (fun i -> i + 3) in
  let take k l =
    let rec go k acc = function
      | x :: tl when k > 0 -> go (k - 1) (x :: acc) tl
      | rem -> (List.rev acc, rem)
    in
    go k [] l
  in
  let q1, rem = take (f - 1) rest in
  let q3, q2 = take (f - 1) rem in
  (q1, q2, q3)

(* The attack on a test-or-set plan with no clients and a Help daemon per
   process (the coalition behaves correctly at first): SET, TEST(a) and
   TEST(b) are spawned up front and sleep until their phase; [naysay]
   is the coalition's phase-4 program. Each phase installs one policy
   that steps only its processes' daemons and its own fibers, over one
   shared random policy, and gets its own step budget. *)
let attack ~seed ~max_steps_per_phase ~n ~f plan ~set ~test ~naysay =
  let s = 0 and pa = 1 and pb = 2 in
  let q1, q2, q3 = partition ~n ~f in
  let random = Policy.random ~seed in
  let ses = Diff.session random plan in
  let sched = ses.Diff.sched in
  ses.client ~pid:s ~name:"SET" [ set ];
  ses.client ~pid:pa ~name:"TEST(a)" [ test ~pid:pa ];
  ses.client ~pid:pb ~name:"TEST(b)" [ test ~pid:pb ];
  let fiber name =
    List.find (fun (fb : Sched.fiber) -> fb.fname = name) sched.fibers
  in
  let set_fiber = fiber "SET" in
  let test_a = fiber "TEST(a)" and test_b = fiber "TEST(b)" in
  let finished (fb : Sched.fiber) (_ : Sched.t) =
    match fb.state with Sched.Finished _ -> true | Sched.Ready _ -> false
  in
  let phase name pids extra until =
    Sched.set_choose sched
      (Policy.only
         (fun _ (fb : Sched.fiber) ->
           List.mem fb.pid pids && (fb.daemon || List.memq fb extra))
         random);
    match
      Sched.run
        ~max_steps:(Sched.steps sched + max_steps_per_phase)
        ~until sched
    with
    | Sched.Condition_met -> ()
    | Sched.Quiescent | Sched.Budget_exhausted -> raise (Phase_stuck name)
  in
  (* Phase 1: SET with {s, pa} ∪ Q1 ∪ Q2 scheduled. *)
  let active1 = s :: pa :: (q1 @ q2) in
  phase "phase1: SET" active1 [ set_fiber ] (finished set_fiber);
  (* Phase 2: TEST by p_a. *)
  phase "phase2: TEST(a)" active1 [ test_a ] (finished test_a);
  (* Phase 3: {s} ∪ Q1 turn Byzantine — kill their Help daemons and reset
     every register they own to its initial value. *)
  let coalition = s :: q1 in
  List.iter
    (fun (fb : Sched.fiber) ->
      if fb.daemon && List.mem fb.pid coalition then Sched.kill fb)
    sched.fibers;
  let resetters =
    List.map
      (fun pid ->
        Sched.spawn sched ~pid ~name:(Printf.sprintf "reset%d" pid) (fun () ->
            List.iter
              (fun (r : Register.t) -> Sched.write r r.Register.init)
              (Space.owned ses.space ~pid)))
      coalition
  in
  phase "phase3: reset" (pa :: (coalition @ q2)) resetters (fun st ->
      List.for_all (fun fb -> finished fb st) resetters);
  (* Phase 4: the coalition answers "no" to every inquiry; {p_b} ∪ Q3 wake
     up and p_b runs TEST'. *)
  List.iter
    (fun pid ->
      ses.daemon ~pid
        ~name:(Byz_script.name ~pid Byz_script.Naysayer)
        (naysay ~pid))
    coalition;
  phase "phase4: TEST(b)" (pb :: pa :: (coalition @ q2 @ q3)) [ test_b ]
    (finished test_b);
  let h = ses.history () in
  let bit pid =
    List.find_map
      (fun (e : (Tspec.op, Tspec.res) History.entry) ->
        match e.ret with
        | Some (Tspec.Bit b, _) when e.pid = pid -> Some b
        | _ -> None)
      h.History.entries
  in
  let correct pid = not (List.mem pid coalition) in
  {
    n;
    f;
    test_a = Option.value (bit pa) ~default:(-1);
    test_b = Option.value (bit pb) ~default:(-1);
    relay_violated = Result.is_error (plan.Diff.judge ~correct h);
    steps = Sched.steps sched;
  }

let run_attack ?(seed = 7) ?(max_steps_per_phase = 2_000_000)
    ?(impl = Via_verifiable) ~n ~f () : outcome =
  if n < 3 || f < 1 then invalid_arg "Impossibility.run_attack: need n>=3, f>=1";
  let q = Quorum.make_relaxed ~n ~f in
  let naysayer prog ~pid = prog ~n ~pid Byz_script.Naysayer in
  (* The test-or-set under attack, built from either register
     (Observation 25) — the impossibility is implementation-independent. *)
  match impl with
  | Via_verifiable ->
      attack ~seed ~max_steps_per_phase ~n ~f
        (Diff.testorset_verifiable_plan q ~byzantine:[] ~scripts:[])
        ~set:Diff.set_verifiable ~test:(Diff.test_verifiable q)
        ~naysay:(naysayer Byz_verifiable.prog)
  | Via_sticky ->
      attack ~seed ~max_steps_per_phase ~n ~f
        (Diff.testorset_sticky_plan q ~byzantine:[] ~scripts:[])
        ~set:(Diff.set_sticky q) ~test:(Diff.test_sticky q)
        ~naysay:(naysayer Byz_sticky.prog)
