(* Unit tests for the effects-based scheduler: atomic step semantics,
   fairness, determinism, kills, policies that keep fibers asleep, and
   the bounded explorer. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime

let mk_sys ?(n = 3) policy =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:policy in
  (space, sched)

let int_reg space ~owner = Space.alloc space ~name:"x" ~owner ~init:(Univ.inj Univ.int 0) ()

let read_int c = Univ.prj_default Univ.int ~default:0 (Sched.read c)

let test_basic_run () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let seen = ref (-1) in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
         Sched.write r (Univ.inj Univ.int 42)));
  ignore (Sched.spawn sched ~pid:1 ~name:"r" (fun () -> seen := read_int r));
  (match Sched.run sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check bool) "reader saw 0 or 42" true (!seen = 0 || !seen = 42)

let test_determinism () =
  let run seed =
    let space, sched = mk_sys (Policy.random ~seed) in
    let r = int_reg space ~owner:0 in
    let order = ref [] in
    for pid = 0 to 2 do
      ignore
        (Sched.spawn sched ~pid ~name:"p" (fun () ->
             ignore (Sched.read r);
             order := pid :: !order;
             ignore (Sched.read r)))
    done;
    ignore (Sched.run sched);
    (!order, Sched.steps sched)
  in
  Alcotest.(check bool) "same seed same run" true (run 9 = run 9);
  (* different seeds usually differ; just check both complete *)
  ignore (run 10)

let test_fairness_round_robin () =
  (* every fiber makes progress under round robin *)
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let counts = Array.make 3 0 in
  for pid = 0 to 2 do
    ignore
      (Sched.spawn sched ~pid ~name:"p" (fun () ->
           for _ = 1 to 10 do
             ignore (Sched.read r);
             counts.(pid) <- counts.(pid) + 1
           done))
  done;
  ignore (Sched.run sched);
  Array.iter (fun c -> Alcotest.(check int) "all ran to completion" 10 c) counts

let test_daemon_quiescence () =
  let space, sched = mk_sys (Policy.random ~seed:1) in
  let r = int_reg space ~owner:0 in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"spin" ~daemon:true (fun () ->
         while true do
           ignore (Sched.read r)
         done));
  ignore (Sched.spawn sched ~pid:1 ~name:"client" (fun () -> ignore (Sched.read r)));
  (match Sched.run ~max_steps:100_000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "daemons must not block quiescence")

let test_budget () =
  let space, sched = mk_sys (Policy.random ~seed:1) in
  let r = int_reg space ~owner:0 in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"forever" (fun () ->
         while true do
           ignore (Sched.read r)
         done));
  match Sched.run ~max_steps:1000 sched with
  | Sched.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected budget exhaustion"

(* [max_steps] bounds the scheduler's step count, not the run's: a run
   after [spawn] gets only what the runs before it left. A client of 30
   reads takes 31 steps (its start, then one per read). *)
let test_budget_is_total () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let client () =
    ignore
      (Sched.spawn sched ~pid:1 ~name:"reads" (fun () ->
           for _ = 1 to 30 do
             ignore (Sched.read r)
           done))
  in
  client ();
  (match Sched.run ~max_steps:50 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "the first client fits the budget");
  Alcotest.(check int) "first run" 31 (Sched.steps sched);
  client ();
  (match Sched.run ~max_steps:50 sched with
  | Sched.Budget_exhausted -> ()
  | _ -> Alcotest.fail "the second run gets only 19 steps");
  Alcotest.(check int) "the budget counts both runs" 50 (Sched.steps sched);
  match Sched.run ~max_steps:62 sched with
  | Sched.Quiescent -> Alcotest.(check int) "both clients" 62 (Sched.steps sched)
  | _ -> Alcotest.fail "62 steps in all finish both clients"

(* [Watchdog.stalled] skips its scan until the clock passes the earliest
   deadline it knows of; it must still answer, before every step, what a
   scan of every entry answers. The entries cover a fiber that finishes
   before its deadline, deadlines that pass while fibers run, a touch
   that pushes an overdue deadline out and one that pulls a deadline
   in. *)
let watchdog_oracle seed =
  let space, sched = mk_sys (Policy.random ~seed) in
  let r = int_reg space ~owner:0 in
  let reads k () =
    for _ = 1 to k do
      ignore (Sched.read r)
    done
  in
  let w = Watchdog.create sched in
  let arm pid name k ~timeout =
    let fiber = Sched.spawn sched ~pid ~name (reads k) in
    Watchdog.arm w ~fiber ~op:name ~timeout
  in
  let short = arm 0 "short" 3 ~timeout:40 in
  let long = arm 1 "long" 60 ~timeout:90 in
  let mid = arm 2 "mid" 30 ~timeout:20 in
  let late = ref [] in
  let entries () = [ short; long; mid ] @ !late in
  let scan () =
    let clock = Sched.clock sched in
    List.filter
      (fun (e : Watchdog.entry) ->
        (match e.Watchdog.wd_fiber.Sched.state with
        | Sched.Ready _ -> true
        | Sched.Finished _ -> false)
        && clock > e.Watchdog.wd_deadline)
      (entries ())
  in
  let same a b = List.length a = List.length b && List.for_all2 ( == ) a b in
  let bad = ref [] and stalls = ref 0 in
  let until t =
    let got = Watchdog.stalled w in
    if not (same got (scan ())) then bad := Sched.clock t :: !bad;
    if got <> [] then begin
      incr stalls;
      List.iter (fun e -> Watchdog.touch w e ~timeout:25) got
    end;
    if Sched.steps t = 10 then Watchdog.touch w long ~timeout:1;
    if Sched.steps t = 30 then late := [ arm 0 "late" 40 ~timeout:15 ];
    false
  in
  (match Sched.run ~until sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check (list int))
    (Printf.sprintf "seed %d: clocks where stalled and a scan disagree" seed)
    [] (List.rev !bad);
  Alcotest.(check bool) (Printf.sprintf "seed %d: stalls seen (%d)" seed !stalls)
    true (!stalls >= 3)

let test_watchdog_oracle () =
  for seed = 1 to 20 do
    watchdog_oracle seed
  done

let test_kill () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let progressed = ref 0 in
  let f =
    Sched.spawn sched ~pid:0 ~name:"victim" (fun () ->
        while true do
          ignore (Sched.read r);
          incr progressed
        done)
  in
  Sched.kill f;
  (match Sched.run ~max_steps:1000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "killed fiber should not run");
  Alcotest.(check int) "victim never progressed" 0 !progressed;
  (* deliberate kills are not reported as failures *)
  Alcotest.(check int) "no failures" 0 (List.length (Sched.failures sched))

(* Policy.only keeps the fibers it rejects asleep: they never step, yet
   they still count for quiescence, so a choice with none accepted is an
   error rather than a step of a sleeper. Back under the plain policy
   the sleeper runs. *)
let test_policy_only () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let ran = Array.make 3 false in
  for pid = 0 to 2 do
    ignore
      (Sched.spawn sched ~pid ~name:"p" (fun () ->
           ignore (Sched.read r);
           ran.(pid) <- true))
  done;
  let rr = Policy.round_robin () in
  Sched.set_choose sched (Policy.only (fun _ f -> f.Sched.pid <> 1) rr);
  (match
     Sched.run ~max_steps:1000 ~until:(fun _ -> ran.(0) && ran.(2)) sched
   with
  | Sched.Condition_met -> ()
  | _ -> Alcotest.fail "expected p0 and p2 to finish");
  Alcotest.(check bool) "p1 asleep" false ran.(1);
  (match Sched.run ~max_steps:1000 sched with
  | _ -> Alcotest.fail "no accepted fiber left, yet the policy chose"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "p1 still asleep" false ran.(1);
  Sched.set_choose sched rr;
  (match Sched.run ~max_steps:1000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check bool) "p1 ran" true ran.(1)

(* Under Policy.only a seeded random policy draws over the accepted
   fibers alone: a run with sleepers steps the others in the order a run
   without the sleepers does. *)
let test_policy_only_draws () =
  for seed = 1 to 20 do
    let order sleepers =
      let space, sched = mk_sys (Policy.random ~seed) in
      let r = int_reg space ~owner:0 in
      let steps = ref [] in
      let body pid () =
        for _ = 1 to 5 do
          ignore (Sched.read r);
          steps := pid :: !steps
        done
      in
      List.iter
        (fun pid ->
          if pid <> 1 || sleepers then
            ignore (Sched.spawn sched ~pid ~name:"p" (body pid)))
        [ 0; 1; 2 ];
      let base = Policy.random ~seed in
      Sched.set_choose sched
        (if sleepers then Policy.only (fun _ f -> f.Sched.pid <> 1) base
         else base);
      ignore
        (Sched.run
           ~until:(fun _ -> List.length (List.filter (( <> ) 1) !steps) = 10)
           sched);
      !steps
    in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: same draws" seed)
      (order false) (order true)
  done

let test_exception_captured () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  ignore (Sched.spawn sched ~pid:0 ~name:"boom" (fun () -> failwith "boom"));
  ignore (Sched.run sched);
  Alcotest.(check int) "failure recorded" 1 (List.length (Sched.failures sched))

let test_on_failure_hook () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  let seen = ref [] in
  Sched.set_on_failure sched
    (Some
       (fun fb e -> seen := (fb.Sched.fname, Printexc.to_string e) :: !seen));
  ignore (Sched.spawn sched ~pid:0 ~name:"boom" (fun () -> failwith "boom"));
  ignore (Sched.spawn sched ~pid:1 ~name:"victim" (fun () -> raise Sched.Killed));
  ignore (Sched.run sched);
  (* the hook fires for real failures, not for deliberate kills *)
  match !seen with
  | [ (name, msg) ] ->
      Alcotest.(check string) "failing fiber" "boom" name;
      Alcotest.(check bool) "exception carried" true
        (String.length msg > 0)
  | l -> Alcotest.failf "expected exactly one hook call, got %d" (List.length l)

let test_permission_violation_hits_fiber () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let caught = ref false in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"byz" (fun () ->
         try Sched.write r (Univ.inj Univ.int 1)
         with Space.Permission_violation _ -> caught := true));
  ignore (Sched.run sched);
  Alcotest.(check bool) "violation raised inside fiber" true !caught

let test_clock_monotone () =
  let space, sched = mk_sys (Policy.round_robin ()) in
  let r = int_reg space ~owner:0 in
  let stamps = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"t" (fun () ->
         stamps := Sched.tick () :: !stamps;
         ignore (Sched.read r);
         stamps := Sched.tick () :: !stamps;
         ignore (Sched.read r);
         stamps := Sched.tick () :: !stamps));
  ignore (Sched.run sched);
  let l = List.rev !stamps in
  Alcotest.(check bool)
    "strictly increasing" true
    (match l with
    | [ a; b; c ] -> a < b && b < c
    | _ -> false)

let test_self () =
  let _space, sched = mk_sys (Policy.round_robin ()) in
  let me = ref (-1) in
  ignore (Sched.spawn sched ~pid:2 ~name:"who" (fun () -> me := Sched.self ()));
  ignore (Sched.run sched);
  Alcotest.(check int) "self pid" 2 !me

(* The explorer visits schedules producing both outcomes of a classic
   read-modify-write race (registers are atomic; the sequence is not). *)
let test_explore_race () =
  let outcomes = ref [] in
  let reg = ref None in
  let make policy =
    let space = Space.create ~n:2 in
    let sched = Sched.create ~space ~choose:policy in
    let r = int_reg space ~owner:0 in
    let r1 = Space.alloc space ~name:"y" ~owner:1 ~init:(Univ.inj Univ.int 0) () in
    reg := Some (r, r1);
    (* two increment-via-read-then-write fibers on separate registers,
       plus a final sum: the "sum" depends on interleaving of reads *)
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
    match !reg with
    | Some (r, r1) ->
        let v = Univ.prj_default Univ.int ~default:(-1) r.Register.value in
        let w = Univ.prj_default Univ.int ~default:(-1) r1.Register.value in
        if not (List.mem (v, w) !outcomes) then outcomes := (v, w) :: !outcomes
    | None -> ()
  in
  let result = Explore.exhaustive ~make ~check ~max_steps:100 ~max_runs:5000 () in
  Alcotest.(check bool) "space exhausted" true result.Explore.exhausted;
  Alcotest.(check bool) "several runs" true (result.Explore.runs > 1);
  Alcotest.(check bool)
    "multiple distinct outcomes" true
    (List.length !outcomes > 1)

(* Swarm exploration over a sticky uniqueness scenario: 50 random
   schedules, uniqueness checked in each. *)
let test_swarm_sticky_uniqueness () =
  let module St = Lnd_sticky.Sticky in
  let results = ref [] in
  let make policy =
    results := [];
    let space = Space.create ~n:4 in
    let sched = Sched.create ~space ~choose:policy in
    let regs = St.alloc space { St.n = 4; f = 1 } in
    for pid = 0 to 3 do
      ignore
        (Sched.spawn sched ~pid ~name:"h" ~daemon:true (fun () ->
             St.help regs ~pid))
    done;
    ignore
      (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
           St.write (St.writer regs) "u"));
    for pid = 1 to 3 do
      ignore
        (Sched.spawn sched ~pid ~name:"r" (fun () ->
             results := St.read (St.reader regs ~pid) :: !results))
    done;
    sched
  in
  let check _ =
    let non_bot = List.filter_map (fun x -> x) !results in
    match List.sort_uniq compare non_bot with
    | [] | [ _ ] -> ()
    | vs -> failwith ("disagreement: " ^ String.concat "," vs)
  in
  let r =
    Explore.swarm ~make ~check ~seeds:(List.init 50 (fun i -> i)) ()
  in
  Alcotest.(check int) "all 50 schedules ran" 50 r.Explore.runs;
  Alcotest.(check int) "none pruned" 0 r.Explore.pruned

(* The ready-array oracle. [Sched.run] keeps its ready array from step
   to step and rebuilds it only when readiness can change; the recording
   policy below copies every array it is handed and compares it with a
   from-scratch filter over [t.fibers] (Ready, not parked, in spawn
   order), then lets a seeded random policy choose. *)
let reference_ready (t : Sched.t) =
  List.filter
    (fun (f : Sched.fiber) ->
      (match f.Sched.state with Sched.Ready _ -> true | Sched.Finished _ -> false)
      && not (f.Sched.parked_at >= 0 && t.Sched.writes <= f.Sched.parked_at))
    t.Sched.fibers

type oracle = { mutable changes : int; mutable bad : string list }

let oracle_policy ~seed =
  let o = { changes = 0; bad = [] } in
  let inner = Policy.random ~seed in
  let last = ref [] in
  let fids fs = List.map (fun (f : Sched.fiber) -> f.Sched.fid) fs in
  let show l = String.concat "," (List.map string_of_int l) in
  let choose t ready =
    let got = fids (Array.to_list ready) in
    let want = fids (reference_ready t) in
    if got <> !last then o.changes <- o.changes + 1;
    last := got;
    if got <> want then
      o.bad <-
        Printf.sprintf "step %d: handed [%s], ready [%s]" (Sched.steps t)
          (show got) (show want)
        :: o.bad;
    inner t ready
  in
  (o, choose)

let check_oracle ?(min_changes = 2) name o =
  Alcotest.(check (list string)) (name ^ ": ready arrays") [] (List.rev o.bad);
  Alcotest.(check bool)
    (Printf.sprintf "%s: readiness changed mid-run (%d times)" name o.changes)
    true (o.changes >= min_changes)

let oracle_sys ~seed =
  let o, choose = oracle_policy ~seed in
  let space = Space.create ~n:3 in
  let sched = Sched.create ~space ~choose in
  (o, space, sched)

let test_ready_oracle_spawn_finish () =
  for seed = 1 to 20 do
    let o, space, sched = oracle_sys ~seed in
    let r = int_reg space ~owner:0 in
    let reads k () =
      for _ = 1 to k do
        ignore (Sched.read r)
      done
    in
    ignore
      (Sched.spawn sched ~pid:0 ~name:"parent" (fun () ->
           reads 2 ();
           (* spawns from inside a running fiber *)
           ignore (Sched.spawn sched ~pid:1 ~name:"child" (reads 3));
           reads 1 ();
           ignore (Sched.spawn sched ~pid:2 ~name:"late" (reads 5));
           reads 2 ()));
    for k = 1 to 4 do
      ignore (Sched.spawn sched ~pid:(k mod 3) ~name:"short" (reads k))
    done;
    (match Sched.run sched with
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "expected quiescence");
    check_oracle ~min_changes:6 "spawn/finish" o
  done

let test_ready_oracle_kill () =
  for seed = 1 to 20 do
    let o, space, sched = oracle_sys ~seed in
    let r = int_reg space ~owner:0 in
    let spin () =
      while true do
        ignore (Sched.read r)
      done
    in
    let a = Sched.spawn sched ~pid:0 ~name:"a" spin in
    let b = Sched.spawn sched ~pid:1 ~name:"b" spin in
    let c = Sched.spawn sched ~pid:2 ~name:"c" spin in
    ignore
      (Sched.spawn sched ~pid:1 ~name:"killer" (fun () ->
           for _ = 1 to 3 do
             ignore (Sched.read r)
           done;
           (* a kill from inside a fiber takes effect at the next step *)
           Sched.kill c;
           ignore (Sched.read r)));
    let stop_after k = Sched.run ~until:(fun t -> Sched.steps t >= k) sched in
    ignore (stop_after 30);
    (* kills between runs *)
    Sched.kill a;
    ignore (stop_after 40);
    Sched.kill b;
    (match Sched.run sched with
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "expected quiescence once every client ended");
    check_oracle ~min_changes:3 "kill" o
  done

let test_ready_oracle_park () =
  for seed = 1 to 20 do
    let o, space, sched = oracle_sys ~seed in
    Sched.set_park_on_yield sched true;
    let r = int_reg space ~owner:0 in
    (* pollers park after every read-only pass until the writer's last
       value shows up; the writer writes twice in a row, so a write
       that re-enables them is not always a step that parks or
       finishes *)
    for pid = 1 to 2 do
      ignore
        (Sched.spawn sched ~pid ~name:"poll" (fun () ->
             while read_int r < 6 do
               Sched.yield ()
             done))
    done;
    ignore
      (Sched.spawn sched ~pid:0 ~name:"writer" (fun () ->
           for v = 1 to 6 do
             ignore (Sched.read r);
             Sched.write r (Univ.inj Univ.int v);
             Sched.write r (Univ.inj Univ.int v)
           done));
    (match Sched.run sched with
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "expected quiescence");
    check_oracle ~min_changes:6 "park-on-yield" o;
    (* every runnable fiber parked: the run is a livelock *)
    let o, space, sched = oracle_sys ~seed in
    Sched.set_park_on_yield sched true;
    let r = int_reg space ~owner:0 in
    ignore
      (Sched.spawn sched ~pid:1 ~name:"stuck" (fun () ->
           while read_int r = 0 do
             Sched.yield ()
           done));
    (match Sched.run sched with
    | Sched.Budget_exhausted -> ()
    | _ -> Alcotest.fail "expected a park-on-yield livelock");
    check_oracle ~min_changes:1 "livelock" o
  done

let test_ready_oracle_daemons () =
  for seed = 1 to 20 do
    let o, space, sched = oracle_sys ~seed in
    let r = int_reg space ~owner:0 in
    for pid = 0 to 2 do
      ignore
        (Sched.spawn sched ~pid ~name:"help" ~daemon:true (fun () ->
             while true do
               ignore (Sched.read r);
               Sched.yield ()
             done))
    done;
    for pid = 0 to 1 do
      ignore
        (Sched.spawn sched ~pid ~name:"client" (fun () ->
             for _ = 1 to 4 + pid do
               ignore (Sched.read r)
             done))
    done;
    (match Sched.run sched with
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "expected quiescence once the clients finished");
    (* daemons alone: quiescent before any step *)
    let steps = Sched.steps sched in
    (match Sched.run sched with
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "daemons alone must be quiescent");
    Alcotest.(check int) "no step without a client" steps (Sched.steps sched);
    check_oracle ~min_changes:2 "daemons" o
  done

(* ---------------- Pinned schedules ---------------- *)

(* A policy that appends each fiber it picks to [fids]. *)
let recording fids inner t ready =
  let i = inner t ready in
  Buffer.add_string fids (string_of_int ready.(i).Sched.fid);
  Buffer.add_char fids ' ';
  i

(* Every effect-fiber step goes back through the scheduler: 3,000,000
   steps of eight yielding fibers must finish without growing the
   stack, on the default stack limit. The policy runs on the stack the
   steps resume from, so the call stack it sees stays as deep as at the
   first steps. *)
let test_many_effect_steps () =
  let depth () = Printexc.raw_backtrace_length (Printexc.get_callstack 10_000) in
  let first = ref 0 and deepest = ref 0 in
  let random = Policy.random ~seed:3 in
  let _, sched =
    mk_sys ~n:8 (fun t ready ->
        let s = Sched.steps t in
        if s = 100 then first := depth ()
        else if s mod 100_000 = 0 then deepest := max !deepest (depth ());
        random t ready)
  in
  for pid = 0 to 7 do
    ignore
      (Sched.spawn sched ~pid ~name:"yields" (fun () ->
           for _ = 1 to 374_999 do
             Sched.yield ()
           done))
  done;
  (match Sched.run ~max_steps:4_000_000 sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "steps" 3_000_000 (Sched.steps sched);
  if !deepest > !first then
    Alcotest.failf "the stack grew from %d to %d frames" !first !deepest

exception Escape of string

(* A policy, an [until] predicate and a failure hook that raise in the
   middle of a run each end that run with their exception; the next
   run goes on with the same fibers. The fibers picked over all four
   runs are pinned. *)
let test_raise_escapes_run () =
  let space, sched = mk_sys ~n:4 (Policy.round_robin ()) in
  let regs =
    Array.init 4 (fun owner ->
        Space.alloc space ~name:(Printf.sprintf "x%d" owner) ~owner
          ~init:(Univ.inj Univ.int 0) ())
  in
  let fids = Buffer.create 256 in
  let fired = ref [] in
  let first what =
    (not (List.mem what !fired))
    && begin
         fired := what :: !fired;
         true
       end
  in
  let inner = recording fids (Policy.random ~seed:5) in
  Sched.set_choose sched (fun t ready ->
      if Sched.steps t = 40 && first "policy" then raise (Escape "policy");
      inner t ready);
  let until t =
    if Sched.steps t = 90 && first "until" then raise (Escape "until");
    false
  in
  Sched.set_on_failure sched
    (Some (fun _ _ -> if first "hook" then raise (Escape "hook")));
  for pid = 0 to 3 do
    ignore
      (Sched.spawn sched ~pid ~name:"rw" (fun () ->
           for k = 1 to 12 do
             ignore (Sched.read regs.((pid + k) mod 4));
             Sched.write regs.(pid) (Univ.inj Univ.int k);
             if pid = 3 && k = 9 then failwith "boom";
             Sched.yield ()
           done))
  done;
  let escapes = ref [] in
  let rec go () =
    match Sched.run ~until sched with
    | exception Escape what ->
        escapes := Printf.sprintf "%s@%d" what (Sched.steps sched) :: !escapes;
        go ()
    | Sched.Quiescent -> ()
    | _ -> Alcotest.fail "expected quiescence"
  in
  go ();
  Alcotest.(check (list string)) "escapes, at step"
    [ "policy@40"; "hook@64"; "until@90" ]
    (List.rev !escapes);
  Alcotest.(check string) "fids"
    ("2 0 3 1 1 0 1 3 0 3 3 0 3 1 3 2 3 3 3 0 1 3 0 3 3 3 2 1 3 2 "
     ^ "3 1 3 2 3 1 2 3 0 3 2 2 3 1 1 3 3 3 0 1 3 0 2 1 3 1 1 0 0 2 "
     ^ "1 3 1 3 0 2 1 2 0 1 0 2 1 0 2 0 1 1 0 2 2 2 0 2 0 1 1 2 1 2 "
     ^ "1 2 0 1 0 0 2 0 2 2 2 2 2 1 2 0 1 2 0 2 2 1 2 1 0 0 2 2 2 0 "
     ^ "2 1 1 1 0 0 2 0 0 1 0 0 1 1 1 0 0 0 ")
    (Buffer.contents fids);
  Alcotest.(check int) "steps" 138 (Sched.steps sched);
  Alcotest.(check int) "failures" 1 (List.length (Sched.failures sched))

(* One run that mixes a session's machine fibers (help daemons, a
   writer and a reader) with effect fibers spawned beside them, writing
   and reading registers of their own. *)
let test_session_with_effect_fibers () =
  let module Diff = Lnd_parallel.Diff in
  let q = Quorum.make ~n:4 ~f:1 in
  let fids = Buffer.create 4096 in
  let s =
    Diff.session
      (recording fids (Policy.random ~seed:11))
      (Diff.sticky_plan q ~byzantine:[] ~scripts:[])
  in
  let extra =
    Array.init 2 (fun i ->
        Space.alloc s.space ~name:(Printf.sprintf "e%d" i) ~owner:(i + 2)
          ~init:(Univ.inj Univ.int 0) ())
  in
  s.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "v" ];
  s.client ~pid:1 ~name:"reader" [ Diff.read_sticky q ~pid:1 ];
  Array.iteri
    (fun i reg ->
      ignore
        (Sched.spawn s.sched ~pid:(i + 2) ~name:"scribble" (fun () ->
             for k = 1 to 12 do
               Sched.write reg (Univ.inj Univ.int k);
               ignore (Sched.read extra.(1 - i));
               Sched.yield ()
             done)))
    extra;
  (match Sched.run ~max_steps:200_000 s.sched with
  | Sched.Quiescent -> ()
  | _ -> Alcotest.fail "expected quiescence");
  Alcotest.(check int) "steps" 293 (Sched.steps s.sched);
  Alcotest.(check string) "first fids"
    "5 1 5 0 4 6 4 2 6 2 0 5 3 3 1 0 6 4 5 6 0 5 6 5 6 6 6 2 5 6 6 6 7 0 2 7 7 2 3 4 "
    (String.sub (Buffer.contents fids) 0 80);
  Alcotest.(check string) "fids (md5)" "7034b3b51aa5a100b0ca20d23babc53f"
    (Digest.to_hex (Digest.string (Buffer.contents fids)))

let tests =
  [
    Alcotest.test_case "basic run" `Quick test_basic_run;
    Alcotest.test_case "swarm: sticky uniqueness over 50 schedules" `Quick
      test_swarm_sticky_uniqueness;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "round-robin fairness" `Quick test_fairness_round_robin;
    Alcotest.test_case "daemons don't block quiescence" `Quick
      test_daemon_quiescence;
    Alcotest.test_case "budget exhaustion" `Quick test_budget;
    Alcotest.test_case "max_steps bounds the total over run; spawn; run"
      `Quick test_budget_is_total;
    Alcotest.test_case "watchdog: stalled agrees with a full scan" `Quick
      test_watchdog_oracle;
    Alcotest.test_case "kill" `Quick test_kill;
    Alcotest.test_case "Policy.only keeps fibers asleep" `Quick
      test_policy_only;
    Alcotest.test_case "Policy.only draws over the accepted fibers" `Quick
      test_policy_only_draws;
    Alcotest.test_case "exception captured" `Quick test_exception_captured;
    Alcotest.test_case "on_failure hook fires (not on kill)" `Quick
      test_on_failure_hook;
    Alcotest.test_case "permission violation reaches fiber" `Quick
      test_permission_violation_hits_fiber;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "self pid" `Quick test_self;
    Alcotest.test_case "explorer covers interleavings" `Quick
      test_explore_race;
    Alcotest.test_case "ready oracle: spawns and finishing fibers" `Quick
      test_ready_oracle_spawn_finish;
    Alcotest.test_case "ready oracle: kills" `Quick test_ready_oracle_kill;
    Alcotest.test_case "ready oracle: park-on-yield and writes" `Quick
      test_ready_oracle_park;
    Alcotest.test_case "ready oracle: daemon-only quiescence" `Quick
      test_ready_oracle_daemons;
    Alcotest.test_case "3,000,000 effect-fiber steps on the default stack"
      `Quick test_many_effect_steps;
    Alcotest.test_case
      "a raising policy, until and failure hook escape run; the next run \
       resumes (pinned)"
      `Quick test_raise_escapes_run;
    Alcotest.test_case
      "session machine fibers beside spawned effect fibers (pinned)" `Quick
      test_session_with_effect_fibers;
  ]
