(* Executable rendition of Theorem 23 (Figures 1-3).

   The paper proves that no correct test-or-set implementation from SWMR
   registers exists when 3 <= n <= 3f, by an indistinguishability argument
   over three histories H1/H2/H3 in which the coalition {s} ∪ Q1 resets
   its registers to their initial values after a TEST by p_a returned 1.

   Here we run that adversary against the test-or-set built from our
   verifiable register (Observation 25), instantiated *deliberately* at
   n = 3f — outside Algorithm 1's n > 3f requirement:

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
module Vr = Lnd_verifiable.Verifiable
module St = Lnd_sticky.Sticky

type impl = Via_verifiable | Via_sticky

type outcome = {
  n : int;
  f : int;
  test_a : int; (* TEST by p_a after SET completes *)
  test_b : int; (* TEST' by p_b after the deny phase *)
  relay_violated : bool; (* test_a = 1 and test_b = 0 *)
  steps : int;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "n=%d f=%d: TEST(p_a)=%d, TEST'(p_b)=%d — %s" o.n o.f o.test_a o.test_b
    (if o.relay_violated then "RELAY VIOLATED (as Theorem 23 predicts for n <= 3f)"
     else "attack failed (n > 3f: Theorem 14 regime)")

exception Phase_stuck of string

let one : Value.t = "1"

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

let run_attack ?(seed = 7) ?(max_steps_per_phase = 2_000_000)
    ?(impl = Via_verifiable) ~n ~f () : outcome =
  if n < 3 || f < 1 then invalid_arg "Impossibility.run_attack: need n>=3, f>=1";
  let s = 0 and pa = 1 and pb = 2 in
  let q1, q2, q3 = partition ~n ~f in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  (* The test-or-set under attack, built from either register
     (Observation 25) — the impossibility is implementation-independent. *)
  let set_op, test_op, help_op, naysay =
    match impl with
    | Via_verifiable ->
        let regs = Vr.alloc space { Vr.n; f } in
        let writer = Vr.writer regs in
        ( (fun () ->
            Vr.write writer one;
            let ok = Vr.sign writer one in
            assert ok),
          (fun ~pid -> if Vr.verify (Vr.reader regs ~pid) one then 1 else 0),
          (fun ~pid () -> Vr.help regs ~pid),
          fun pid ->
            ignore
              (Lnd_byz.Byz_verifiable.spawn sched regs ~pid
                 Lnd_byz.Byz_script.Naysayer) )
    | Via_sticky ->
        let regs = St.alloc space { St.n; f } in
        let writer = St.writer regs in
        ( (fun () -> St.write writer one),
          (fun ~pid ->
            match St.read (St.reader regs ~pid) with
            | Some v when Value.equal v one -> 1
            | Some _ | None -> 0),
          (fun ~pid () -> St.help regs ~pid),
          fun pid ->
            ignore
              (Lnd_byz.Byz_sticky.spawn sched regs ~pid
                 Lnd_byz.Byz_script.Naysayer) )
  in
  (* Help fibers for everyone (the coalition behaves correctly at first). *)
  let helps =
    Array.init n (fun pid ->
        Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
          ~daemon:true (help_op ~pid))
  in
  (* Client fibers. *)
  let set_fiber = Sched.spawn sched ~pid:s ~name:"SET" set_op in
  let test_a_result = ref (-1) in
  let test_a_fiber =
    Sched.spawn sched ~pid:pa ~name:"TEST(a)" (fun () ->
        test_a_result := test_op ~pid:pa)
  in
  let test_b_result = ref (-1) in
  let test_b_fiber =
    Sched.spawn sched ~pid:pb ~name:"TEST(b)" (fun () ->
        test_b_result := test_op ~pid:pb)
  in
  (* Scheduling masks per phase. *)
  let enable (pids : int list) (extra : Sched.fiber list) =
    Sched.set_enabled sched (fun fb ->
        List.mem fb.Sched.pid pids
        && (fb.Sched.daemon || List.exists (fun x -> x == fb) extra))
  in
  let run_until name pred =
    match Sched.run ~max_steps:max_steps_per_phase ~until:pred sched with
    | Sched.Condition_met -> ()
    | Sched.Quiescent | Sched.Budget_exhausted -> raise (Phase_stuck name)
  in
  let finished (fb : Sched.fiber) (_ : Sched.t) =
    match fb.Sched.state with Sched.Finished _ -> true | Sched.Ready _ -> false
  in
  (* Phase 1: SET with {s, pa} ∪ Q1 ∪ Q2 scheduled. *)
  let active1 = s :: pa :: (q1 @ q2) in
  enable active1 [ set_fiber ];
  run_until "phase1: SET" (finished set_fiber);
  (* Phase 2: TEST by p_a. *)
  enable active1 [ test_a_fiber ];
  run_until "phase2: TEST(a)" (finished test_a_fiber);
  (* Phase 3: {s} ∪ Q1 turn Byzantine — kill their Help fibers and reset
     every register they own to its initial value. *)
  let coalition = s :: q1 in
  List.iter (fun pid -> Sched.kill helps.(pid)) coalition;
  let resetters =
    List.map
      (fun pid ->
        Sched.spawn sched ~pid ~name:(Printf.sprintf "reset%d" pid) (fun () ->
            List.iter
              (fun (r : Register.t) -> Sched.write r r.Register.init)
              (Space.owned space ~pid)))
      coalition
  in
  enable (pa :: (coalition @ q2)) resetters;
  run_until "phase3: reset"
    (fun st -> List.for_all (fun fb -> finished fb st) resetters);
  (* Phase 4: the coalition answers "no" to every inquiry; {p_b} ∪ Q3 wake
     up and p_b runs TEST'. *)
  List.iter naysay coalition;
  enable (pb :: pa :: (coalition @ q2 @ q3)) [ test_b_fiber ];
  run_until "phase4: TEST(b)" (finished test_b_fiber);
  {
    n;
    f;
    test_a = !test_a_result;
    test_b = !test_b_result;
    relay_violated = !test_a_result = 1 && !test_b_result = 0;
    steps = Sched.steps sched;
  }
