(* Ablation experiments: each design choice the paper's prose motivates is
   removed, and the predicted failure is exhibited; the unmodified
   algorithm is then shown to survive the same scenario.

   A1 (§5.1): the strawman one-shot VERIFY breaks the relay property.
   A2 (§7.1): WRITE without the n-f witness wait lets a READ after a
              completed WRITE return ⊥ (validity violation).
   A3 (§7.1): the lax witness policy lets an equivocating writer split
              the correct witnesses between two values. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Vr = Lnd_verifiable.Verifiable
module Vcore = Lnd_verifiable.Verifiable_core
module Vabl = Lnd_verifiable.Ablation
module St = Lnd_sticky.Sticky
module Score = Lnd_sticky.Sticky_core
module Sabl = Lnd_sticky.Ablation

(* Peek at a register's committed value by name (test-only introspection). *)
let peek_vset space ~name : Value.Set.t =
  let regs = List.concat_map (fun pid -> Space.owned space ~pid) [ 0; 1; 2; 3; 4; 5; 6 ] in
  match List.find_opt (fun (r : Register.t) -> r.Register.name = name) regs with
  | Some r -> Univ.prj_default Codecs.vset ~default:Value.Set.empty r.Register.value
  | None -> Alcotest.failf "no register named %s" name

let peek_vopt space ~n ~name : Value.t option =
  let regs = List.concat_map (fun pid -> Space.owned space ~pid) (List.init n (fun i -> i)) in
  match List.find_opt (fun (r : Register.t) -> r.Register.name = name) regs with
  | Some r -> Univ.prj_default Codecs.value_opt ~default:None r.Register.value
  | None -> Alcotest.failf "no register named %s" name

let fiber_done (fb : Sched.fiber) (_ : Sched.t) =
  match fb.Sched.state with Sched.Finished _ -> true | Sched.Ready _ -> false

(* Daemon-only phases need a non-daemon "pacer" to keep the scheduler
   running while we wait for a predicate over daemon-made progress. *)
let pacer = ref 0

let run_until ?(pace_pid = 2) sched name pred =
  incr pacer;
  ignore
    (Sched.spawn sched ~pid:pace_pid ~name:(Printf.sprintf "pacer%d" !pacer)
       (fun () ->
         for _ = 1 to 200_000 do
           Sched.yield ()
         done));
  match Sched.run ~max_steps:4_000_000 ~until:pred sched with
  | Sched.Condition_met -> ()
  | _ -> Alcotest.failf "%s: phase stuck" name

(* ------------------------------------------------------------------ *)
(* A1: strawman verify breaks relay                                    *)
(* ------------------------------------------------------------------ *)

(* n=7, f=2; Byzantine {p0 (writer), p6}. The coalition plants v in its
   two witness registers and lets exactly one correct process adopt; the
   naive verifier counts 3 = f+1 yes and says TRUE; after the coalition
   erases its registers, a later naive verify says FALSE. *)
let a1_setup () =
  let n = 7 and f = 2 in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:3) in
  let regs = Vr.alloc space { Vr.n; f } in
  (* help only for p1 (other correct helps stay asleep so that only p1
     adopts; Byzantine processes run no help) *)
  let _h1 =
    Sched.spawn sched ~pid:1 ~name:"help1" ~daemon:true (fun () ->
        Vr.help regs ~pid:1)
  in
  (* coalition plants v *)
  let plant0 =
    Sched.spawn sched ~pid:0 ~name:"byz-plant0" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 0))
          (Univ.inj Codecs.vset (Value.Set.singleton "v")))
  in
  let plant6 =
    Sched.spawn sched ~pid:6 ~name:"byz-plant6" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 6))
          (Univ.inj Codecs.vset (Value.Set.singleton "v")))
  in
  run_until sched "plant" (fun st ->
      fiber_done plant0 st && fiber_done plant6 st);
  (* an asker appears (p5 bumps its round counter), prompting p1's help to
     adopt v from R_0 *)
  ignore
    (Sched.spawn sched ~pid:5 ~name:"asker" (fun () ->
         Cell.write (regs.Vr.cell (Vcore.C 5)) (Univ.inj Codecs.counter 1)));
  run_until sched "adopt" (fun _ ->
      Value.Set.mem "v" (peek_vset space ~name:"R_1"));
  (space, sched, regs)

let test_a1_naive_breaks_relay () =
  let space, sched, regs = a1_setup () in
  (* first naive verify: sees R_0, R_1, R_6 ∋ v -> 3 >= f+1 -> TRUE *)
  let first = ref false in
  let va =
    Sched.spawn sched ~pid:2 ~name:"naiveA" (fun () ->
        first := Vabl.naive_verify_all regs "v")
  in
  run_until sched "naiveA" (fiber_done va);
  Alcotest.(check bool) "naive verify returns true" true !first;
  (* the coalition erases its registers ("denies") *)
  let erase0 =
    Sched.spawn sched ~pid:0 ~name:"byz-erase0" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 0))
          (Univ.inj Codecs.vset Value.Set.empty))
  in
  let erase6 =
    Sched.spawn sched ~pid:6 ~name:"byz-erase6" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 6))
          (Univ.inj Codecs.vset Value.Set.empty))
  in
  run_until sched "erase" (fun st -> fiber_done erase0 st && fiber_done erase6 st);
  (* later naive verify: only R_1 ∋ v -> 1 < f+1 -> FALSE: relay broken *)
  let second = ref true in
  let vb =
    Sched.spawn sched ~pid:3 ~name:"naiveB" (fun () ->
        second := Vabl.naive_verify_all regs "v")
  in
  run_until sched "naiveB" (fiber_done vb);
  Alcotest.(check bool) "later naive verify returns false" false !second;
  ignore space

(* The real Algorithm 1 in the same scenario: whatever the first VERIFY
   answers, no later VERIFY contradicts a TRUE. *)
let test_a1_algorithm1_survives () =
  let n = 7 and f = 2 in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:3) in
  let regs = Vr.alloc space { Vr.n; f } in
  for pid = 1 to 5 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
         ~daemon:true (fun () -> Vr.help regs ~pid))
  done;
  let plant =
    Sched.spawn sched ~pid:0 ~name:"byz-plant" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 0))
          (Univ.inj Codecs.vset (Value.Set.singleton "v"));
        Cell.write (regs.Vr.cell (Vcore.R 6))
          (Univ.inj Codecs.vset (Value.Set.singleton "v")))
  in
  (* note: p0 cannot write R_6; expect the plant fiber to fail on the
     second write — only its own register is planted *)
  ignore plant;
  let first = ref false in
  let va =
    Sched.spawn sched ~pid:2 ~name:"verifyA" (fun () ->
        first := Vr.verify (Vr.reader regs ~pid:2) "v")
  in
  run_until sched "verifyA" (fiber_done va);
  (* erase *)
  let erase =
    Sched.spawn sched ~pid:0 ~name:"byz-erase" (fun () ->
        Cell.write (regs.Vr.cell (Vcore.R 0))
          (Univ.inj Codecs.vset Value.Set.empty))
  in
  run_until sched "erase" (fiber_done erase);
  let second = ref false in
  let vb =
    Sched.spawn sched ~pid:3 ~name:"verifyB" (fun () ->
        second := Vr.verify (Vr.reader regs ~pid:3) "v")
  in
  run_until sched "verifyB" (fiber_done vb);
  (* RELAY: a true first answer forces a true second answer *)
  if !first then Alcotest.(check bool) "relay preserved" true !second

(* ------------------------------------------------------------------ *)
(* A2: write without the witness wait breaks validity                  *)
(* ------------------------------------------------------------------ *)

(* One run of the race. Asynchrony is modelled by processes p1..p4 being
   very slow: they take no steps during the first [freeze] scheduler steps
   (and run normally afterwards — the schedule stays fair). The writer
   performs WRITE, completing strictly before the reader invokes READ. *)
let a2_run ~seed ~nowait ~freeze : Value.t option =
  let n = 7 and f = 2 in
  let space = Space.create ~n in
  let base = Policy.random ~seed in
  let slow pid = pid >= 1 && pid <= 4 in
  let choose (sched : Sched.t) (ready : Sched.fiber array) =
    if sched.Sched.steps > freeze then base sched ready
    else begin
      let awake =
        Array.to_list ready
        |> List.mapi (fun i fb -> (i, fb))
        |> List.filter (fun (_, (fb : Sched.fiber)) -> not (slow fb.Sched.pid))
      in
      match awake with
      | [] -> base sched ready
      | _ ->
          let i = base sched (Array.of_list (List.map snd awake)) in
          fst (List.nth awake i)
    end
  in
  let sched = Sched.create ~space ~choose in
  let regs = St.alloc space { St.n; f } in
  for pid = 0 to n - 1 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
         ~daemon:true (fun () -> St.help regs ~pid))
  done;
  let writer = St.writer regs in
  let wf =
    Sched.spawn sched ~pid:0 ~name:"writer" (fun () ->
        if nowait then Sabl.write_nowait writer "v" else St.write writer "v")
  in
  run_until ~pace_pid:5 sched "write" (fiber_done wf);
  (* WRITE has completed; now READ *)
  let got = ref None in
  let rf =
    Sched.spawn sched ~pid:6 ~name:"reader" (fun () ->
        got := St.read (St.reader regs ~pid:6))
  in
  run_until ~pace_pid:5 sched "read" (fiber_done rf);
  !got

let test_a2_nowait_breaks_validity () =
  let seeds = List.init 20 (fun i -> i) in
  let violations =
    List.filter (fun seed -> a2_run ~seed ~nowait:true ~freeze:50_000 = None) seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "some schedule returns ⊥ after a completed no-wait WRITE (%d/20 seeds)"
       (List.length violations))
    true
    (List.length violations > 0)

let test_a2_algorithm2_survives () =
  List.iter
    (fun seed ->
      Alcotest.(check (option string))
        (Printf.sprintf "VALIDITY with the real WRITE (seed %d)" seed)
        (Some "v")
        (a2_run ~seed ~nowait:false ~freeze:50_000))
    (List.init 10 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* A3: lax witness policy lets witnesses split                         *)
(* ------------------------------------------------------------------ *)

(* Equivocating Byzantine writer vs help policy: phase 1 shows "a" to p1,
   phase 2 shows "b" to p2/p3. *)
let a3_run ~lax =
  let n = 4 and f = 1 in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:5) in
  let regs = St.alloc space { St.n; f } in
  let help = if lax then Sabl.help_lax else St.help in
  let helps =
    Array.init n (fun pid ->
        if pid = 0 then None
        else
          Some
            (Sched.spawn sched ~pid ~name:(Printf.sprintf "help%d" pid)
               ~daemon:true (fun () -> help regs ~pid)))
  in
  ignore helps;
  (* phase 1: E_0 = a, only p1 awake; give it an asker so it answers *)
  let w1 =
    Sched.spawn sched ~pid:0 ~name:"byz-a" (fun () ->
        Cell.write (regs.St.cell (Score.E 0))
          (Univ.inj Codecs.value_opt (Some "a")))
  in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"asker" (fun () ->
         Cell.write (regs.St.cell (Score.C 2)) (Univ.inj Codecs.counter 1)));
  Sched.set_enabled sched (fun fb -> fb.Sched.pid <> 3 || not fb.Sched.daemon);
  run_until sched "phase a" (fun st ->
      fiber_done w1 st
      && (not lax)
      || (lax && peek_vopt space ~n ~name:"R_1" = Some "a"));
  (* phase 2: flip E_0 to b, wake everyone *)
  let w2 =
    Sched.spawn sched ~pid:0 ~name:"byz-b" (fun () ->
        Cell.write (regs.St.cell (Score.E 0))
          (Univ.inj Codecs.value_opt (Some "b")))
  in
  Sched.set_enabled sched (fun _ -> true);
  run_until sched "flip" (fiber_done w2);
  (* let the system settle for a while *)
  ignore
    (Sched.spawn sched ~pid:2 ~name:"settle" (fun () ->
         for _ = 1 to 2000 do
           Sched.yield ()
         done));
  ignore (Sched.run ~max_steps:500_000 sched);
  let witnesses =
    List.filter_map
      (fun name -> peek_vopt space ~n ~name)
      [ "R_1"; "R_2"; "R_3" ]
  in
  (space, sched, regs, witnesses)

let test_a3_lax_splits_witnesses () =
  let _, _, _, witnesses = a3_run ~lax:true in
  let distinct = List.sort_uniq compare witnesses in
  Alcotest.(check bool)
    (Printf.sprintf "lax policy splits correct witnesses (%s)"
       (String.concat "," witnesses))
    true
    (List.length distinct > 1)

let test_a3_strict_never_splits () =
  let _, _, _, witnesses = a3_run ~lax:false in
  let distinct = List.sort_uniq compare witnesses in
  Alcotest.(check bool)
    (Printf.sprintf "strict policy keeps witnesses unanimous (%s)"
       (String.concat "," witnesses))
    true
    (List.length distinct <= 1)

(* With split witnesses, a READ cannot assemble an n-f quorum and stalls;
   with the strict policy it terminates. *)
let test_a3_lax_read_stalls () =
  let _, sched, regs, _ = a3_run ~lax:true in
  let finished = ref false in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"reader" (fun () ->
         ignore (St.read (St.reader regs ~pid:2));
         finished := true));
  ignore (Sched.run ~max_steps:300_000 sched);
  Alcotest.(check bool) "read stalls under split witnesses" false !finished

let test_a3_strict_read_terminates () =
  let _, sched, regs, _ = a3_run ~lax:false in
  let finished = ref false in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"reader" (fun () ->
         ignore (St.read (St.reader regs ~pid:2));
         finished := true));
  ignore (Sched.run ~max_steps:2_000_000 sched);
  Alcotest.(check bool) "read terminates under strict policy" true !finished

let tests =
  [
    Alcotest.test_case "A1: strawman verify breaks relay" `Quick
      test_a1_naive_breaks_relay;
    Alcotest.test_case "A1: Algorithm 1 survives the same attack" `Quick
      test_a1_algorithm1_survives;
    Alcotest.test_case "A2: no-wait write breaks validity" `Quick
      test_a2_nowait_breaks_validity;
    Alcotest.test_case "A2: Algorithm 2 write survives" `Quick
      test_a2_algorithm2_survives;
    Alcotest.test_case "A3: lax policy splits witnesses" `Quick
      test_a3_lax_splits_witnesses;
    Alcotest.test_case "A3: strict policy never splits" `Quick
      test_a3_strict_never_splits;
    Alcotest.test_case "A3: lax read stalls" `Quick test_a3_lax_read_stalls;
    Alcotest.test_case "A3: strict read terminates" `Quick
      test_a3_strict_read_terminates;
  ]
