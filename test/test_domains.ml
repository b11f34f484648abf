(* The domains driver's wake-on-write loop (lib/runtime/domains.ml): a run
   that can never progress must end in an [Error] naming its parked
   machines, quickly, instead of burning its step budget; and a run whose
   processes hand off through register writes must complete without lost
   wakeups and without spinning through idle re-polls. Processes that
   share a domain must still pass a barrier they all wait at. The
   calling domain hosts the first process in pid order, and the worker
   pool must reuse workers across runs, survive failed runs, and serve
   concurrent callers, with at most cores - 1 workers per run. *)

open Lnd_support
module Domains = Lnd_runtime.Domains
module Dcell = Domains.Dcell
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel

let wall () =
  (Unix.gettimeofday ()
  [@lnd.allow
    "determinism: the stall test bounds real time-to-Error; no verdict \
     depends on the value"])

(* A cell only [owner] may write. *)
let int_cell ~owner name =
  Dcell.make ~name ~owner ~init:(Univ.inj Univ.int 0) ()

let get r =
  Machine.(
    let* u = read r in
    ret (Univ.prj_default Univ.int ~default:(-1) u))

(* The cores' wait-loop shape: one read-only poll pass, then a yield. *)
let rec await_value r x =
  Machine.(
    let* y = get r in
    if y = x then ret () else let* () = yield in await_value r x)

let rec idle_poll r =
  Machine.(
    let* _ = read r in
    let* () = yield in
    idle_poll r)

type reg = A | B

let test_stall_is_error () =
  let a = int_cell ~owner:0 "A" and b = int_cell ~owner:1 "B" in
  let cell = function A -> a | B -> b in
  let d = Domains.create () in
  let idle () = Domains.daemon ~label:"idle" ~cell (idle_poll B) in
  Domains.add_process d ~pid:0 ~daemons:[ idle () ]
    [
      Domains.job ~cell
        ~finish:(fun ~inv:_ ~ret:_ () -> ())
        (fun () -> await_value A 1);
    ];
  Domains.add_process d ~pid:1 ~daemons:[ idle () ] [];
  let t0 = wall () in
  let r = Domains.run d in
  let dt = wall () -. t0 in
  (match r with
  | Ok steps -> Alcotest.failf "a run nobody can finish returned Ok %d" steps
  | Error m ->
      List.iter
        (fun name ->
          if not (Test_obs.contains ~sub:name m) then
            Alcotest.failf "stall error does not name %S: %s" name m)
        [ "stalled"; "p0-op (pid 0)"; "idle0 (pid 0)"; "idle1 (pid 1)" ]);
  if dt > 1.0 then Alcotest.failf "stall took %.2f s to report" dt

(* Hand-off k (1..handoffs) writes k: p0 writes the odd ones into A
   after seeing k-1 in B, p1 the even ones into B after seeing k-1 in A. *)
let handoffs = 1_000

(* A 2-process ping-pong run of [handoffs] hand-offs; [finish] runs on
   the domain hosting each process once its job completes. *)
let ping_pong ?(finish = fun _pid -> ()) handoffs =
  let a = int_cell ~owner:0 "A" and b = int_cell ~owner:1 "B" in
  let cell = function A -> a | B -> b in
  let side ~pid ~mine ~theirs ~first =
    let rec go k =
      Machine.(
        if k > handoffs then ret ()
        else
          let* () = await_value theirs (k - 1) in
          let* () = write mine (Univ.inj Univ.int k) in
          go (k + 2))
    in
    Domains.job ~cell
      ~finish:(fun ~inv:_ ~ret:_ () -> finish pid)
      (fun () -> go first)
  in
  let d = Domains.create () in
  Domains.add_process d ~pid:0 [ side ~pid:0 ~mine:A ~theirs:B ~first:1 ];
  Domains.add_process d ~pid:1 [ side ~pid:1 ~mine:B ~theirs:A ~first:2 ];
  (Domains.run d, b)

let test_ping_pong () =
  match ping_pong handoffs with
  | Error m, _ -> Alcotest.failf "ping-pong failed: %s" m
  | Ok steps, b ->
      Alcotest.(check int) "last hand-off landed" handoffs
        (Univ.prj_default Univ.int ~default:(-1) (Dcell.read b));
      if steps > 20 * handoffs then
        Alcotest.failf "%d machine steps for %d hand-offs (> 20 each)" steps
          handoffs

(* ---------------- Worker pool ---------------- *)

let self_id () = (Domain.self () :> int)

(* Records each process's worker id into its own slot: every slot is
   written by one worker and read after [run] returned. *)
let recorder n =
  let ids = Array.make n (-1) in
  (ids, fun pid -> ids.(pid) <- self_id ())

let distinct l = List.sort_uniq compare l

(* A run uses one domain per process, up to one per core, and the
   calling domain is one of them. *)
let cores = Domain.recommended_domain_count ()

(* The hosting contract of one run: the first process in pid order ran
   on the calling domain. Returns the pooled workers the others ran on. *)
let pooled ~what ids =
  if ids.(0) <> self_id () then
    Alcotest.failf "%s: pid 0 did not run on the calling domain" what;
  List.filter (fun id -> id <> self_id ()) (distinct (Array.to_list ids))

(* A worker that counted the run down before going back to the pool
   could still look busy to the next run, which would spawn a
   replacement: 300 back-to-back runs would then see more than the
   min(2, cores) - 1 workers the idle stack hands back every time. *)
let test_pool_reuse () =
  let seen = ref [] in
  for _ = 1 to 300 do
    let ids, note = recorder 2 in
    (match ping_pong ~finish:note 6 with
    | Ok _, _ -> ()
    | Error m, _ -> Alcotest.failf "ping-pong run failed: %s" m);
    seen := pooled ~what:"2-process run" ids @ !seen
  done;
  let workers = distinct !seen in
  if List.length workers <> min 2 cores - 1 then
    Alcotest.failf "300 runs of 2 processes used %d pooled workers, not %d"
      (List.length workers) (min 2 cores - 1);
  (* One 7-process run: pid k hands off to pid k+1 through register k. *)
  let n = 7 in
  let cells =
    Array.init n (fun i -> int_cell ~owner:i (Printf.sprintf "R%d" i))
  in
  let cell i = cells.(i) in
  let ids, note = recorder n in
  let d = Domains.create () in
  for pid = 0 to n - 1 do
    let prog () =
      Machine.(
        let* () = if pid = 0 then ret () else await_value (pid - 1) 1 in
        write pid (Univ.inj Univ.int 1))
    in
    Domains.add_process d ~pid
      [ Domains.job ~cell ~finish:(fun ~inv:_ ~ret:_ () -> note pid) prog ]
  done;
  (match Domains.run d with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "7-process run failed: %s" m);
  if Array.mem (-1) ids then Alcotest.fail "a finish callback never ran";
  let all = distinct (pooled ~what:"7-process run" ids @ !seen) in
  if List.length all <> min n cores - 1 then
    Alcotest.failf
      "%d distinct pooled workers for runs of at most %d processes on %d \
       cores, not %d"
      (List.length all) n cores (min n cores - 1)

(* A stalled run, a run whose job's [finish] raises, and a run whose
   job's program builder raises (re-raised by [run], as [Domain.join]
   did) must each hand their workers back intact: a normal run afterwards
   returns [Ok] on the same domains. The ids are recorded where each
   job's program is built, which runs on the domain hosting its process:
   the calling domain for pid 0, a worker for pid 1 when there are two
   cores or more. *)
let test_pool_failure_leaks_nothing () =
  let a = int_cell ~owner:0 "A" in
  let cell (A | B) = a in
  let run_recorded ?(finish_raises = false) mk =
    let ids, note = recorder 2 in
    let d = Domains.create () in
    for pid = 0 to 1 do
      let prog () =
        note pid;
        mk pid
      in
      Domains.add_process d ~pid
        [
          Domains.job ~cell
            ~finish:(fun ~inv:_ ~ret:_ () ->
              if finish_raises && pid = 1 then failwith "finish boom")
            prog;
        ]
    done;
    let r = try Ok (Domains.run d) with e -> Error e in
    (r, distinct (Array.to_list ids))
  in
  let stalled, w1 = run_recorded (fun _ -> await_value A 1) in
  (match stalled with
  | Ok (Error m) when Test_obs.contains ~sub:"stalled" m -> ()
  | _ -> Alcotest.fail "a never-written poll did not stall");
  let raised, w2 =
    run_recorded ~finish_raises:true (fun _ -> Machine.ret ())
  in
  (match raised with
  | Ok (Error m) when Test_obs.contains ~sub:"correct machine p1-op failed" m
    ->
      ()
  | _ -> Alcotest.fail "a raising finish did not fail the run");
  let thrown, w3 =
    run_recorded (fun pid ->
        if pid = 0 then failwith "prog boom" else Machine.ret ())
  in
  (match thrown with
  | Error (Failure m) when m = "prog boom" -> ()
  | _ -> Alcotest.fail "a raising program builder was not re-raised");
  let ids, note = recorder 2 in
  (match ping_pong ~finish:note 10 with
  | Ok _, _ -> ()
  | Error m, _ -> Alcotest.failf "run after failures: %s" m);
  let w4 = distinct (Array.to_list ids) in
  if List.length w4 <> min 2 cores || List.mem (-1) w4 then
    Alcotest.failf "the normal run did not record %d domains" (min 2 cores);
  (* An aborted run may end a process before it builds its program, so
     only the ids that were recorded are compared. *)
  List.iter
    (fun (what, w) ->
      if List.exists (fun id -> id <> -1 && not (List.mem id w4)) w then
        Alcotest.failf "the %s run used other domains than the normal run"
          what)
    [ ("stalled", w1); ("raising-finish", w2); ("raising-program", w3) ]

(* pid 0's program builder raises on the calling domain while pid 1's
   job runs on a worker: pid 0 waits until pid 1 has started, and pid 1
   finishes only 50 ms later, so a [run] that re-raised before its
   worker's body ended would find pid 1 unfinished. The next run must
   get the same worker back. On one core both share the caller and pid 1
   never starts. *)
let test_caller_raise_waits_for_workers () =
  let a = int_cell ~owner:0 "A" in
  let cell (A | B) = a in
  let started = Atomic.make false and finished = Atomic.make false in
  let ids, note = recorder 2 in
  let d = Domains.create () in
  let prog0 () =
    let t0 = wall () in
    while cores > 1 && (not (Atomic.get started)) && wall () -. t0 < 10. do
      Domain.cpu_relax ()
    done;
    failwith "prog boom"
  in
  let prog1 () =
    note 1;
    Atomic.set started true;
    let t0 = wall () in
    while wall () -. t0 < 0.05 do
      Domain.cpu_relax ()
    done;
    Machine.ret ()
  in
  let job ~finish prog =
    Domains.job ~cell ~finish:(fun ~inv:_ ~ret:_ () -> finish ()) prog
  in
  Domains.add_process d ~pid:0 [ job ~finish:ignore prog0 ];
  Domains.add_process d ~pid:1
    [ job ~finish:(fun () -> Atomic.set finished true) prog1 ];
  (match Domains.run d with
  | exception Failure m when m = "prog boom" -> ()
  | _ -> Alcotest.fail "pid 0's raising program builder was not re-raised");
  if cores > 1 then begin
    if not (Atomic.get finished) then
      Alcotest.fail "run re-raised before the worker's body ended";
    let again, note = recorder 2 in
    (match ping_pong ~finish:note 10 with
    | Ok _, _ -> ()
    | Error m, _ -> Alcotest.failf "run after the raise: %s" m);
    if again.(1) <> ids.(1) then
      Alcotest.fail "the next run did not reuse the raising run's worker"
  end

(* The caller hosts a traced run's first group under its own Obs
   context: its open span and ambient pid survive the run, what it emits
   afterwards still lands under its span, and the merged trace of the
   caller's and the workers' events is well-nested. *)
let test_caller_obs_context () =
  let tr = Trace.create () in
  Obs.install (Trace.sink tr);
  let sp =
    Fun.protect ~finally:Obs.uninstall (fun () ->
      Obs.set_ambient ~span:0 ~pid:42;
      let sp = Obs.span_open ~name:"CALLER" () in
      let w = Diff.generate ~proto:Diff.Sticky 1 in
      (match (Parallel.run w).Diff.verdict with
      | Ok () -> ()
      | Error m -> Alcotest.failf "traced run failed: %s" m);
      Alcotest.(check int) "ambient span after the run" sp (Obs.ambient ());
      Alcotest.(check int) "ambient pid after the run" 42 (Obs.ambient_pid ());
      Obs.emit (Obs.Reg_round { reg = 0; round = "after"; rid = 0 });
      Obs.span_close ~name:"CALLER" sp;
      sp)
  in
  Trace.finish tr;
  (match
     List.find_opt
       (fun (e : Obs.event) ->
         match e.kind with
         | Obs.Reg_round { round = "after"; _ } -> true
         | _ -> false)
       (Trace.events tr)
   with
  | Some e ->
      Alcotest.(check (pair int int))
        "the caller's event carries its span and pid" (sp, 42)
        (e.span, e.pid)
  | None -> Alcotest.fail "the caller's event is missing from the trace");
  match Trace.check tr with
  | None -> ()
  | Some m -> Alcotest.failf "trace ill-nested: %s" m

(* One more process than cores, so by pigeonhole two of them share a
   domain. Each writes its own flag, then waits for all n flags: the run
   completes only if co-located processes interleave at their yields.
   Each process gets an idle daemon, as help daemons would be. With
   [silent], that process never writes its flag and the run must stall,
   naming every parked machine in pid order. *)
let barrier ?silent ~finish n =
  let cells =
    Array.init n (fun i -> int_cell ~owner:i (Printf.sprintf "F%d" i))
  in
  let cell i = cells.(i) in
  let rec await_all k =
    Machine.(
      if k = n then ret ()
      else
        let* () = await_value k 1 in
        await_all (k + 1))
  in
  let d = Domains.create () in
  for pid = 0 to n - 1 do
    let prog () =
      Machine.(
        let* () =
          if silent = Some pid then ret () else write pid (Univ.inj Univ.int 1)
        in
        await_all 0)
    in
    let idle = Domains.daemon ~label:"idle" ~cell (idle_poll pid) in
    Domains.add_process d ~pid ~daemons:[ idle ]
      [ Domains.job ~cell ~finish:(fun ~inv:_ ~ret:_ () -> finish pid) prog ]
  done;
  Domains.run d

let test_colocated_barrier () =
  let n = cores + 1 in
  let ids, note = recorder n in
  (match barrier ~finish:note n with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%d-process barrier failed: %s" n m);
  if Array.mem (-1) ids then Alcotest.fail "a finish callback never ran";
  let ws = pooled ~what:"barrier" ids in
  if List.length ws <> cores - 1 then
    Alcotest.failf "%d processes ran on %d pooled workers beside the caller, \
                    not %d" n (List.length ws) (cores - 1);
  match barrier ~silent:1 ~finish:(fun _ -> ()) n with
  | Ok steps -> Alcotest.failf "a barrier missing a flag returned Ok %d" steps
  | Error m ->
      let expected =
        "parked: "
        ^ String.concat ", "
            (List.init n (fun pid ->
                 Printf.sprintf "p%d-op (pid %d), idle%d (pid %d)" pid pid pid
                   pid))
      in
      if
        not
          (Test_obs.contains ~sub:"stalled" m
          && Test_obs.contains ~sub:expected m)
      then Alcotest.failf "stall error does not read %S: %s" expected m

let test_pool_concurrent_callers () =
  let caller () = fst (ping_pong 200) in
  let c1 = Domain.spawn caller and c2 = Domain.spawn caller in
  List.iter
    (fun c ->
      match Domain.join c with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "concurrent caller failed: %s" m)
    [ c1; c2 ]

let tests =
  [
    Alcotest.test_case
      "a run with no writer left is an Error naming parked machines" `Quick
      test_stall_is_error;
    Alcotest.test_case "1,000 ping-pong hand-offs: no lost wakeup, no spinning"
      `Quick test_ping_pong;
    Alcotest.test_case
      "pool: 300 runs of 2 then one of 7 use at most min(7, cores) workers"
      `Quick test_pool_reuse;
    Alcotest.test_case
      "pool: stalled and raising runs hand their workers back" `Quick
      test_pool_failure_leaks_nothing;
    Alcotest.test_case "pool: two concurrent callers both complete" `Quick
      test_pool_concurrent_callers;
    Alcotest.test_case
      "pool: pid 0 raising on the caller is re-raised after the worker \
       ended, and the worker is reused"
      `Quick test_caller_raise_waits_for_workers;
    Alcotest.test_case
      "a traced run leaves the caller's ambient span and pid as they were"
      `Quick test_caller_obs_context;
    Alcotest.test_case
      "cores + 1 processes pass a barrier on at most cores workers, and stall \
       without one flag"
      `Quick test_colocated_barrier;
  ]
