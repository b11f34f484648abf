(* Rewinding a system of machine fibers. The oracle: a Diff.system run
   k steps, then on to quiescence, then rewound to step k, must be
   indistinguishable from a fresh system stepped the same k steps —
   registers, Space counters, every fiber's footprint, park state and
   status, clock, steps and writes, the rendered history and the
   verdict — and must stay so when both finish under the same policy.
   Then the explorer half: DPOR over Mcheck's rewinding [make] must
   explore exactly what it explores when every schedule gets a fresh
   system and replays its prefix, and audit mode, whose Obs sink makes
   systems non-rewindable, must count the same. *)

open Lnd_support
module Diff = Lnd_parallel.Diff
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Explore = Lnd_runtime.Explore
module Space = Lnd_shm.Space
module Register = Lnd_shm.Register
module M = Lnd_fuzz.Mcheck
module Obs = Lnd_obs.Obs

(* Everything a rewind must restore, one line per item. *)
let snapshot (s : Diff.system) =
  let sched = s.Diff.sched and space = s.Diff.space in
  let n = Space.n space in
  let regs =
    List.concat_map (fun pid -> Space.owned space ~pid) (List.init n Fun.id)
    |> List.sort (fun (a : Register.t) b -> compare a.Register.id b.Register.id)
    |> List.map (fun (r : Register.t) ->
           Format.asprintf "%s = %a" r.Register.name Univ.pp r.Register.value)
  in
  let stats =
    Format.asprintf "space: %a" Space.pp_stats (Space.stats space)
    :: List.init n (fun pid ->
           Format.asprintf "p%d: %a" pid Space.pp_stats
             (Space.stats_of_pid space pid))
  in
  let fibers =
    List.map
      (fun (f : Sched.fiber) ->
        Format.asprintf "%a next %a parked_at %d %s" Sched.pp_fiber f
          Sched.pp_footprint f.Sched.next_access f.Sched.parked_at
          (match f.Sched.state with
          | Sched.Ready _ -> "ready"
          | Sched.Finished Sched.Completed -> "completed"
          | Sched.Finished (Sched.Failed e) -> Printexc.to_string e))
      sched.Sched.fibers
  in
  String.concat "\n"
    ([
       Printf.sprintf "clock %d steps %d writes %d" (Sched.clock sched)
         (Sched.steps sched) sched.Sched.writes;
     ]
    @ regs @ stats @ fibers
    @ [
        "history: " ^ s.Diff.rendered ();
        Printf.sprintf "ops %d" (s.Diff.ops ());
        (match s.Diff.verdict () with
        | Ok b -> Printf.sprintf "verdict ok %b" b
        | Error m -> "verdict " ^ m);
      ])

(* A work's system with its journal switched on, as the model checker
   switches on each system it builds. *)
let system ?(journal = true) ~park (w : Diff.work) =
  let s =
    Diff.system (Policy.random ~seed:(w.Diff.seed + 5))
      (Diff.plan w ~scripts:(Diff.genomes w) ~byzantine:(Diff.byzantine_pids w)
         ~broken:false)
  in
  if journal then Sched.journal s.Diff.sched;
  Sched.set_park_on_yield s.Diff.sched park;
  s

let finish (s : Diff.system) =
  Sched.set_choose s.Diff.sched (Policy.random ~seed:99);
  ignore (Sched.run ~max_steps:200_000 s.Diff.sched : Sched.stop_reason)

let test_oracle proto () =
  for seed = 1 to 20 do
    let w = Diff.generate ~proto seed in
    let park = seed mod 2 = 0 in
    let what = Printf.sprintf "%s seed %d" (Diff.proto_name proto) seed in
    let a = system ~park w in
    ignore (Sched.run ~max_steps:(5 + (37 * seed mod 300)) a.Diff.sched);
    let k = Sched.steps a.Diff.sched in
    ignore (Sched.run ~max_steps:200_000 a.Diff.sched);
    Alcotest.(check bool) (what ^ ": still rewindable") true
      (Sched.rewindable a.Diff.sched);
    let ran = Sched.steps a.Diff.sched in
    Sched.rewind a.Diff.sched k;
    Alcotest.(check int) (what ^ ": executed counts the rewound steps") ran
      (Sched.executed a.Diff.sched);
    let b = system ~park w in
    ignore (Sched.run ~max_steps:k b.Diff.sched);
    Alcotest.(check string) (what ^ ": rewound to step k") (snapshot b)
      (snapshot a);
    finish a;
    finish b;
    Alcotest.(check string) (what ^ ": both finished") (snapshot b)
      (snapshot a)
  done

(* Rewinding twice in a row, and to step 0, restore the same state a
   fresh system starts from. *)
let test_rewind_to_zero () =
  let w = Diff.generate ~proto:Diff.Verifiable 3 in
  let a = system ~park:true w and b = system ~park:true w in
  let before = snapshot b in
  ignore (Sched.run a.Diff.sched);
  Sched.rewind a.Diff.sched 40;
  Sched.rewind a.Diff.sched 0;
  Alcotest.(check string) "step 0" before (snapshot a)

(* What makes a system non-rewindable, for good, starting with a journal
   nobody switched on. *)
let test_not_rewindable () =
  let w = Diff.generate ~proto:Diff.Sticky 4 in
  let fresh () = system ~park:false w in
  let s = system ~journal:false ~park:false w in
  ignore (Sched.run ~max_steps:10 s.Diff.sched);
  Alcotest.(check bool) "no journal switched on" false
    (Sched.rewindable s.Diff.sched);
  (match Sched.journal s.Diff.sched with
  | () -> Alcotest.fail "switched a journal on after the first step"
  | exception Invalid_argument _ -> ());
  let s = fresh () in
  ignore (Sched.run ~max_steps:10 s.Diff.sched);
  Alcotest.(check bool) "machine fibers only: rewindable" true
    (Sched.rewindable s.Diff.sched);
  let s = fresh () in
  ignore (Sched.run ~max_steps:10 s.Diff.sched);
  ignore
    (Sched.spawn s.Diff.sched ~pid:0 ~name:"late" (fun () -> ()) : Sched.fiber);
  Alcotest.(check bool) "a spawn once it ran" false
    (Sched.rewindable s.Diff.sched);
  let s = fresh () in
  Sched.kill (List.hd s.Diff.sched.Sched.fibers);
  Alcotest.(check bool) "a kill" false (Sched.rewindable s.Diff.sched);
  let s = fresh () in
  Obs.install { Obs.emit = ignore };
  Fun.protect ~finally:Obs.uninstall (fun () ->
      ignore (Sched.run ~max_steps:10 s.Diff.sched));
  Alcotest.(check bool) "a step under an Obs sink" false
    (Sched.rewindable s.Diff.sched);
  match Sched.rewind s.Diff.sched 0 with
  | () -> Alcotest.fail "rewound a non-rewindable system"
  | exception Invalid_argument _ -> ()

(* ---------------- The explorer half ---------------- *)

let result =
  Alcotest.testable
    (fun fmt (r : Explore.result) ->
      Format.fprintf fmt
        "runs %d / pruned %d / blocked %d / races %d / exhausted %b / max \
         depth %d"
        r.Explore.runs r.Explore.pruned r.Explore.blocked r.Explore.races
        r.Explore.exhausted r.Explore.max_depth)
    ( = )

(* DPOR where every schedule gets a fresh system from a fresh instance,
   so the explorer replays each shared prefix from step 0. *)
let fresh_dpor ?max_runs ?max_preempts cfg =
  let current = ref None in
  let make policy =
    let i = M.instance cfg in
    current := Some i;
    i.M.make policy
  in
  let check sched = Option.iter (fun i -> i.M.check sched) !current in
  Explore.dpor ~make ~check ~max_steps:600 ?max_runs ?max_preempts
    ~note:(M.note cfg) ()

let same ?max_runs ?max_preempts what cfg =
  Alcotest.check result what
    (fresh_dpor ?max_runs ?max_preempts cfg)
    (M.explore ~max_steps:600 ?max_runs ?max_preempts cfg)

let verifiable = { M.default with M.model = M.Verifiable; reads = 2 }
let testorset = { M.default with M.model = M.Testorset }

let test_defaults () =
  same ~max_preempts:0 "sticky, bound 0" M.default;
  same ~max_preempts:0 "verifiable, bound 0" verifiable;
  same ~max_preempts:0 "test-or-set, bound 0" testorset

let test_budgeted () =
  same ~max_runs:2_000 ~max_preempts:1 "sticky, bound 1, 2,000 runs" M.default;
  same ~max_runs:2_000 "sticky, unbounded, 2,000 runs" M.default

let test_genomes () =
  List.iter
    (fun (g, cfg) ->
      let cfg = { cfg with M.scripts = [ (3, g) ] } in
      same ~max_preempts:0
        (Printf.sprintf "%s genome [%s]" (Diff.proto_name cfg.M.model)
           (String.concat ";" (List.map string_of_int g)))
        cfg)
    [
      ([ 0; 0; 0 ], M.default);
      ([ 1; 1; 1 ], M.default);
      ([ 0; 1; 2 ], testorset);
      ([ 2; 1; 0 ], verifiable);
      ([ 1; 0; 2 ], verifiable);
    ]

let test_weakened () =
  let cx explore =
    match explore () with
    | (_ : Explore.result) -> Alcotest.fail "expected a violation"
    | exception Explore.Violation cx -> cx
  in
  let a =
    cx (fun () ->
        M.explore ~max_steps:600 ~max_runs:50_000 ~max_preempts:1 M.weakened)
  and b =
    cx (fun () -> fresh_dpor ~max_runs:50_000 ~max_preempts:1 M.weakened)
  in
  Alcotest.(check string) "the same counterexample trail"
    (Format.asprintf "%a" Explore.pp_schedule b.Explore.cx_schedule)
    (Format.asprintf "%a" Explore.pp_schedule a.Explore.cx_schedule);
  Alcotest.(check int) "of the same length" b.Explore.cx_steps
    a.Explore.cx_steps

(* Audit mode installs an Obs sink per run, so [make] builds a fresh
   system for every schedule — and explores the same space. *)
let test_audit () =
  let cfg = { M.default with M.audit = true } in
  let i = M.instance cfg in
  Fun.protect ~finally:i.M.teardown (fun () ->
      let a = i.M.make (Policy.round_robin ()) in
      ignore (Sched.run ~max_steps:600 a);
      let b = i.M.make (Policy.round_robin ()) in
      Alcotest.(check bool) "a fresh system per run" false (a == b));
  List.iter
    (fun (what, cfg) ->
      Alcotest.check result what
        (M.explore ~max_steps:600 ~max_preempts:0 cfg)
        (M.explore ~max_steps:600 ~max_preempts:0 { cfg with M.audit = true }))
    [ ("sticky, bound 0, audited", M.default);
      ("test-or-set, bound 0, audited", testorset) ]

let tests =
  [
    Alcotest.test_case "rewound = fresh: sticky workloads" `Quick
      (test_oracle Diff.Sticky);
    Alcotest.test_case "rewound = fresh: verifiable workloads" `Quick
      (test_oracle Diff.Verifiable);
    Alcotest.test_case "rewound = fresh: test-or-set workloads" `Quick
      (test_oracle Diff.Testorset);
    Alcotest.test_case "rewinding to step 0 gives the fresh state" `Quick
      test_rewind_to_zero;
    Alcotest.test_case "spawn, kill, mask and Obs end rewinding" `Quick
      test_not_rewindable;
    Alcotest.test_case "dpor rewinding = replaying: the default configs"
      `Quick test_defaults;
    Alcotest.test_case "dpor rewinding = replaying: the budgeted pins" `Quick
      test_budgeted;
    Alcotest.test_case "dpor rewinding = replaying: five more genomes" `Quick
      test_genomes;
    Alcotest.test_case "dpor rewinding = replaying: the weakened violation"
      `Quick test_weakened;
    Alcotest.test_case "audit mode builds fresh systems, same counts" `Quick
      test_audit;
  ]
