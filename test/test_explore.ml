(* The bounded model checker: DPOR agrees with the naive DFS on outcome
   sets while exploring fewer schedules, finds a planted mutual-exclusion
   bug, reports exhaustion on clean programs, and its counterexamples
   replay deterministically. Plus the Policy.scripted edge cases the
   naive explorer's trail encoding relies on. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime

let int_reg space ~name ~owner =
  Space.alloc space ~name ~owner ~init:(Univ.inj Univ.int 0) ()

let read_int r = Univ.prj_default Univ.int ~default:(-1) (Sched.read r)

(* ---------------- DPOR vs naive DFS on the read/write race ----------- *)

(* Two increment-via-read-then-write fibers plus cross-register reads:
   the final register contents depend on the interleaving. Both explorers
   must observe exactly the same set of outcomes; DPOR must do it in
   fewer runs. *)
let race_program () =
  let regs = ref None in
  let outcomes = ref [] in
  let make policy =
    let space = Space.create ~n:2 in
    let sched = Sched.create ~space ~choose:policy in
    let r = int_reg space ~name:"x" ~owner:0 in
    let r1 = int_reg space ~name:"y" ~owner:1 in
    regs := Some (r, r1);
    ignore
      (Sched.spawn sched ~pid:0 ~name:"a" (fun () ->
           let x = read_int r in
           let y = read_int r1 in
           Sched.write r (Univ.inj Univ.int (x + y + 1))));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"b" (fun () ->
           let x = read_int r in
           Sched.write r1 (Univ.inj Univ.int (x + 1))));
    sched
  in
  let check _sched =
    match !regs with
    | Some (r, r1) ->
        let v = Univ.prj_default Univ.int ~default:(-1) r.Register.value in
        let w = Univ.prj_default Univ.int ~default:(-1) r1.Register.value in
        if not (List.mem (v, w) !outcomes) then outcomes := (v, w) :: !outcomes
    | None -> ()
  in
  (make, check, outcomes)

let test_dpor_agrees_with_dfs () =
  let make, check, outcomes = race_program () in
  let naive = Explore.exhaustive ~make ~check ~max_steps:100 () in
  let dfs_outcomes = List.sort compare !outcomes in
  outcomes := [];
  let make2, check2, outcomes2 = race_program () in
  ignore make;
  let reduced = Explore.dpor ~make:make2 ~check:check2 ~max_steps:100 () in
  ignore check;
  let dpor_outcomes = List.sort compare !outcomes2 in
  Alcotest.(check bool) "naive exhausted" true naive.Explore.exhausted;
  Alcotest.(check bool) "dpor exhausted" true reduced.Explore.exhausted;
  Alcotest.(check (list (pair int int)))
    "same outcome set" dfs_outcomes dpor_outcomes;
  Alcotest.(check bool)
    (Printf.sprintf "dpor explores fewer schedules (%d < %d)"
       reduced.Explore.runs naive.Explore.runs)
    true
    (reduced.Explore.runs < naive.Explore.runs);
  Alcotest.(check bool) "dpor saw a race" true (reduced.Explore.races > 0)

(* ---------------- A known-violating toy protocol --------------------- *)

(* Check-then-act "mutual exclusion" with the classic bug: each process
   checks the other's flag FIRST and only then raises its own; if both
   check before either write lands, both enter the critical section. The
   checker must find that interleaving. *)
exception Mutex_violated

let flags_program () =
  let entered = [| false; false |] in
  let make policy =
    entered.(0) <- false;
    entered.(1) <- false;
    let space = Space.create ~n:2 in
    let sched = Sched.create ~space ~choose:policy in
    let fa = int_reg space ~name:"flagA" ~owner:0 in
    let fb = int_reg space ~name:"flagB" ~owner:1 in
    ignore
      (Sched.spawn sched ~pid:0 ~name:"a" (fun () ->
           if read_int fb = 0 then begin
             Sched.write fa (Univ.inj Univ.int 1);
             entered.(0) <- true
           end));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"b" (fun () ->
           if read_int fa = 0 then begin
             Sched.write fb (Univ.inj Univ.int 1);
             entered.(1) <- true
           end));
    sched
  in
  let check _sched = if entered.(0) && entered.(1) then raise Mutex_violated in
  (make, check)

let test_dpor_finds_mutex_bug () =
  let make, check = flags_program () in
  match Explore.dpor ~make ~check ~max_steps:50 () with
  | _ -> Alcotest.fail "expected a Violation"
  | exception Explore.Violation cx ->
      Alcotest.(check bool)
        "carries the checker's exception" true
        (cx.Explore.cx_exn = Mutex_violated);
      Alcotest.(check bool) "has a fid trail" true
        (match cx.Explore.cx_schedule with
        | Explore.Fids (_ :: _) -> true
        | _ -> false);
      (* one-call replay must reproduce the same violation *)
      let make2, check2 = flags_program () in
      (match Explore.replay ~make:make2 ~check:check2 cx.Explore.cx_schedule with
      | Error Mutex_violated -> ()
      | Error e ->
          Alcotest.failf "replay raised %s instead" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "replay did not reproduce the violation")

(* The fixed variant: process 1 defers whenever it sees the other flag
   raised AND process 0 never checks (a trivially safe asymmetric
   protocol). Clean => exhausted with no violation. *)
let test_dpor_clean_exhausts () =
  let entered = [| false; false |] in
  let make policy =
    entered.(0) <- false;
    entered.(1) <- false;
    let space = Space.create ~n:2 in
    let sched = Sched.create ~space ~choose:policy in
    let fa = int_reg space ~name:"flagA" ~owner:0 in
    let fb = int_reg space ~name:"flagB" ~owner:1 in
    ignore
      (Sched.spawn sched ~pid:0 ~name:"a" (fun () ->
           Sched.write fa (Univ.inj Univ.int 1);
           ignore (read_int fb);
           entered.(0) <- true;
           Sched.write fa (Univ.inj Univ.int 0)));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"b" (fun () ->
           Sched.write fb (Univ.inj Univ.int 1);
           (* enters only when A is finished for good: A lowers its flag
              after its critical section, and never raises it again *)
           if read_int fa = 0 && read_int fa = 0 then entered.(1) <- true));
    sched
  in
  let check _sched = () in
  let r = Explore.dpor ~make ~check ~max_steps:50 () in
  Alcotest.(check bool) "exhausted" true r.Explore.exhausted;
  Alcotest.(check int) "nothing pruned" 0 r.Explore.pruned;
  Alcotest.(check bool) "several runs" true (r.Explore.runs >= 1)

(* ---------------- Policy.scripted edge cases ------------------------- *)

let two_fiber_program () =
  let space = Space.create ~n:2 in
  let steps = ref [] in
  fun policy ->
    let sched = Sched.create ~space:(Space.create ~n:2) ~choose:policy in
    ignore space;
    ignore
      (Sched.spawn sched ~pid:0 ~name:"a" (fun () ->
           steps := 0 :: !steps;
           Sched.yield ();
           steps := 0 :: !steps));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"b" (fun () ->
           steps := 1 :: !steps;
           Sched.yield ();
           steps := 1 :: !steps));
    sched

let test_scripted_empty_script () =
  (* no script: always picks the lowest-fid ready fiber, and the trail
     records every decision with its branching degree *)
  let make = two_fiber_program () in
  let trail = ref [] in
  let sched = make (Policy.scripted ~script:[] ~trail) in
  let reason = Sched.run sched in
  Alcotest.(check bool) "quiescent" true (reason = Sched.Quiescent);
  let tr = List.rev !trail in
  Alcotest.(check (list (pair int int)))
    "all choices default to 0, degrees shrink as fibers finish"
    [ (0, 2); (0, 2); (0, 1); (0, 1) ]
    tr

let test_scripted_long_script () =
  (* a script longer than the run: surplus entries are simply unused;
     the trail length equals the actual number of decisions *)
  let make = two_fiber_program () in
  let trail = ref [] in
  let script = [ 1; 1; 0; 0; 0; 0; 0; 0; 0; 0; 0 ] in
  let sched = make (Policy.scripted ~script ~trail) in
  ignore (Sched.run sched);
  Alcotest.(check int) "four decisions, not eleven" 4 (List.length !trail)

let test_scripted_degree_mismatch () =
  (* a choice index past the branching degree is clamped to the last
     sibling instead of crashing — the explorer depends on this when a
     backtracked script meets a shallower subtree *)
  let make = two_fiber_program () in
  let trail = ref [] in
  let sched = make (Policy.scripted ~script:[ 7; 7; 7; 7 ] ~trail) in
  let reason = Sched.run sched in
  Alcotest.(check bool) "still quiescent" true (reason = Sched.Quiescent);
  List.iter
    (fun (c, d) ->
      Alcotest.(check bool) "choice within degree" true (c < d))
    !trail

let test_replay_diverged () =
  (* a fid trail that names a fiber the program does not have *)
  let make = two_fiber_program () in
  match
    Explore.replay ~make
      ~check:(fun _ -> ())
      (Explore.Fids [ 0; 99 ])
  with
  | _ -> Alcotest.fail "expected Replay_diverged"
  | exception Explore.Replay_diverged { at; _ } ->
      Alcotest.(check int) "diverged at step 1" 1 at

(* ---------------- The fiber limit ------------------------------------ *)

(* DPOR keeps its fiber sets in one int, which holds fids 0-61: [k]
   readers of one register explore fine up to 62 and are refused, by
   name of the limit, from 63 on. *)
let readers k policy =
  let space = Space.create ~n:1 in
  let sched = Sched.create ~space ~choose:policy in
  let r = int_reg space ~name:"x" ~owner:0 in
  for i = 1 to k do
    ignore
      (Sched.spawn sched ~pid:0 ~name:(Printf.sprintf "r%d" i) (fun () ->
           ignore (read_int r)))
  done;
  sched

let test_dpor_fiber_limit () =
  let check _sched = () in
  let r = Explore.dpor ~make:(readers 62) ~check ~max_steps:1_000 () in
  Alcotest.(check bool) "62 fibers: exhausted" true r.Explore.exhausted;
  match Explore.dpor ~make:(readers 63) ~check ~max_steps:1_000 () with
  | _ -> Alcotest.fail "63 fibers: expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "the message names the limit"
        "Explore.dpor: fiber id 62 is beyond the 62-fiber limit (fids 0-61)"
        msg

(* Bounds that leave nothing to explore are refused, not reported as an
   exhausted space: a run of no steps, or one that cannot afford its
   first choice, would end at once with nothing left to backtrack to,
   and a budget of no run would still run one. *)
let test_bounds_refused () =
  let check _sched = () in
  let refused what f =
    match f () with
    | (_ : Explore.result) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let make = readers 2 in
  refused "dpor, max_preempts -1" (fun () ->
      Explore.dpor ~make ~check ~max_preempts:(-1) ());
  refused "dpor, max_steps 0" (fun () -> Explore.dpor ~make ~check ~max_steps:0 ());
  refused "dpor, max_runs -1" (fun () -> Explore.dpor ~make ~check ~max_runs:(-1) ());
  refused "dpor, max_runs 0" (fun () -> Explore.dpor ~make ~check ~max_runs:0 ());
  refused "exhaustive, max_steps -3" (fun () ->
      Explore.exhaustive ~make ~check ~max_steps:(-3) ());
  refused "exhaustive, max_runs -1" (fun () ->
      Explore.exhaustive ~make ~check ~max_runs:(-1) ());
  refused "exhaustive, max_runs 0" (fun () ->
      Explore.exhaustive ~make ~check ~max_runs:0 ())

let tests =
  [
    Alcotest.test_case "dpor agrees with naive DFS on outcomes" `Quick
      test_dpor_agrees_with_dfs;
    Alcotest.test_case "dpor finds the flags mutex bug" `Quick
      test_dpor_finds_mutex_bug;
    Alcotest.test_case "dpor exhausts a clean protocol" `Quick
      test_dpor_clean_exhausts;
    Alcotest.test_case "scripted: empty script" `Quick
      test_scripted_empty_script;
    Alcotest.test_case "scripted: script longer than the run" `Quick
      test_scripted_long_script;
    Alcotest.test_case "scripted: degree mismatch clamps" `Quick
      test_scripted_degree_mismatch;
    Alcotest.test_case "replay: fid trail divergence is loud" `Quick
      test_replay_diverged;
    Alcotest.test_case "dpor refuses fibers beyond its 62-fiber limit" `Quick
      test_dpor_fiber_limit;
    Alcotest.test_case "explorers refuse bounds that leave nothing to explore"
      `Quick test_bounds_refused;
  ]
