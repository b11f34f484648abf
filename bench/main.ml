(* Benchmark harness — regenerates every experiment table of
   EXPERIMENTS.md (the paper is theory-only; DESIGN.md §3 defines the
   experiment suite: cost tables T1-T7 plus wall-clock micro-benchmarks).

   Everything deterministic is measured in *shared-register accesses* and
   *scheduler steps* (the natural cost model of the paper); wall-clock
   numbers come from bechamel at the end.

   Run with: dune exec bench/main.exe *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Net = Lnd_msgpass.Net
module Diff = Lnd_parallel.Diff
module History = Lnd_history.History

let pf = Printf.printf

let line () =
  pf "%s\n" (String.make 78 '-')

let header title =
  pf "\n";
  line ();
  pf "%s\n" title;
  line ()

let sweep_nf = [ (4, 1); (7, 2); (10, 3); (13, 4); (16, 5); (19, 6) ]

(* Run a prepared system until quiescence; fail loudly on stuck runs. *)
let run_q ?(max_steps = 50_000_000) sched =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent -> ()
  | Sched.Budget_exhausted -> failwith "bench scenario exhausted its budget"
  | Sched.Condition_met -> ()

(* ------------------------------------------------------------------ *)
(* T1: verifiable register — fault-free cost of each operation vs n    *)
(* ------------------------------------------------------------------ *)

type opcost = { reads : int; writes : int; steps : int; rounds : int }

(* The verifiable register with [byzantine] crashed or scripted, as one
   session; [scripts] names each scripted pid's strategy. *)
let verifiable_session ~seed ~n ~f ~byzantine ~scripts =
  let q = Quorum.make_relaxed ~n ~f in
  ( q,
    Diff.session (Policy.random ~seed)
      (Diff.verifiable_plan q ~byzantine ~scripts) )

let sticky_session ~seed ~n ~f ~byzantine ~scripts =
  let q = Quorum.make_relaxed ~n ~f in
  ( q,
    Diff.session (Policy.random ~seed) (Diff.sticky_plan q ~byzantine ~scripts)
  )

(* Each of [byz] running [adversary], if there is one. *)
let scripts_of byz = function
  | None -> []
  | Some s -> List.map (fun pid -> (pid, s)) byz

(* Run one more client at [pid] to quiescence: [pid]'s register accesses
   and the run's steps. *)
let measure (t : (_, _, _) Diff.session) ~pid ~name jobs =
  let before = Space.stats_of_pid t.space pid in
  let before_steps = Sched.steps t.sched in
  t.client ~pid ~name jobs;
  run_q t.sched;
  let after = Space.stats_of_pid t.space pid in
  {
    reads = after.Space.reads - before.Space.reads;
    writes = after.Space.writes - before.Space.writes;
    steps = Sched.steps t.sched - before_steps;
    rounds = 0;
  }

(* The result of [pid]'s last completed operation. *)
let last_result (t : (_, 'op, 'res) Diff.session) ~pid : 'res =
  match
    List.rev
      (List.filter
         (fun (e : ('op, 'res) History.entry) -> e.pid = pid)
         (History.complete_entries (t.history ())))
  with
  | { History.ret = Some (r, _); _ } :: _ -> r
  | _ -> failwith "bench: no completed operation"

let measure_verifiable ~n ~f =
  let q, t = verifiable_session ~seed:42 ~n ~f ~byzantine:[] ~scripts:[] in
  let write_cost = measure t ~pid:0 ~name:"op" [ Diff.write_verifiable "v" ] in
  let sign_cost = measure t ~pid:0 ~name:"op" [ Diff.sign "v" ] in
  let read_cost = measure t ~pid:1 ~name:"op" [ Diff.read_verifiable ] in
  (* verify of a signed value; its writes are exactly its C_k round
     announcements, so writes = rounds *)
  let verify_cost =
    let c = measure t ~pid:2 ~name:"op" [ Diff.verify q ~pid:2 "v" ] in
    { c with rounds = c.writes }
  in
  (write_cost, sign_cost, read_cost, verify_cost)

let table_t1 () =
  header
    "T1  Verifiable register (Algorithm 1), fault-free: per-operation cost\n\
    \    (reads/writes = all accesses by the operating process during the\n\
    \    operation, including its own background Help fiber — hence small\n\
    \    read noise on O(1) ops; VERIFY of a signed value)";
  pf "%4s %4s | %14s | %14s | %14s | %20s\n" "n" "f" "WRITE r/w" "SIGN r/w"
    "READ r/w" "VERIFY r/w (rounds)";
  List.iter
    (fun (n, f) ->
      let w, s, r, v = measure_verifiable ~n ~f in
      pf "%4d %4d | %6d / %5d | %6d / %5d | %6d / %5d | %6d / %5d (%d)\n" n f
        w.reads w.writes s.reads s.writes r.reads r.writes v.reads v.writes
        v.rounds)
    sweep_nf

(* ------------------------------------------------------------------ *)
(* T2: VERIFY under adversaries                                        *)
(* ------------------------------------------------------------------ *)

let measure_verify_under ~n ~f ~adversary ~value_signed =
  let byz = List.init f (fun i -> n - 1 - i) in
  let q, t =
    verifiable_session ~seed:7 ~n ~f ~byzantine:byz
      ~scripts:(scripts_of byz adversary)
  in
  if value_signed then
    ignore
      (measure t ~pid:0 ~name:"w" [ Diff.write_verifiable "v"; Diff.sign "v" ]
        : opcost);
  let c = measure t ~pid:1 ~name:"verify" [ Diff.verify q ~pid:1 "v" ] in
  ( c.reads,
    c.writes,
    c.steps,
    last_result t ~pid:1 = Lnd_history.Spec.Verifiable_spec.Verified true )

let table_t2 () =
  header
    "T2  VERIFY cost under f Byzantine processes (reader p1's accesses;\n\
    \    rounds = writes; every VERIFY terminates, relay never violated)";
  pf "%4s %4s | %-22s | %8s %8s %8s | %s\n" "n" "f" "adversary" "reads"
    "rounds" "steps" "verdict";
  let adversaries =
    [
      ("none (signed)", None, true);
      ("naysayers (signed)", Some Lnd_byz.Byz_script.Naysayer, true);
      ("flip-floppers (signed)", Some (Lnd_byz.Byz_script.Flipflop "v"), true);
      ( "false-witness (unsigned)",
        Some (Lnd_byz.Byz_script.False_witness "v"),
        false );
    ]
  in
  List.iter
    (fun (n, f) ->
      List.iter
        (fun (name, adv, signed) ->
          let reads, rounds, steps, verdict =
            measure_verify_under ~n ~f ~adversary:adv ~value_signed:signed
          in
          pf "%4d %4d | %-22s | %8d %8d %8d | %b\n" n f name reads rounds
            steps verdict)
        adversaries)
    [ (4, 1); (7, 2); (10, 3) ]

(* T2b: VERIFY round-count distribution across schedules *)

let table_t2b () =
  header
    "T2b VERIFY round-count distribution across 100 random schedules\n\
    \    (n=7, f=2; rounds = C_k increments of one reader verifying a\n\
    \    signed value)";
  pf "%-22s | %6s %6s %6s\n" "adversary" "min" "mean" "max";
  let measure adversary =
    let rounds =
      List.map
        (fun seed ->
          let n = 7 and f = 2 in
          let byz = List.init f (fun i -> n - 1 - i) in
          let q, t =
            verifiable_session ~seed ~n ~f
              ~byzantine:(match adversary with None -> [] | Some _ -> byz)
              ~scripts:(scripts_of byz adversary)
          in
          ignore
            (measure t ~pid:0 ~name:"w"
               [ Diff.write_verifiable "v"; Diff.sign "v" ]
              : opcost);
          (measure t ~pid:1 ~name:"v" [ Diff.verify q ~pid:1 "v" ]).writes)
        (List.init 100 (fun i -> i))
    in
    let mn = List.fold_left min max_int rounds in
    let mx = List.fold_left max 0 rounds in
    let mean =
      float_of_int (List.fold_left ( + ) 0 rounds)
      /. float_of_int (List.length rounds)
    in
    (mn, mean, mx)
  in
  List.iter
    (fun (name, adv) ->
      let mn, mean, mx = measure adv in
      pf "%-22s | %6d %6.1f %6d\n" name mn mean mx)
    [
      ("none (fault-free)", None);
      ("naysayers", Some Lnd_byz.Byz_script.Naysayer);
      ("flip-floppers", Some (Lnd_byz.Byz_script.Flipflop "v"));
    ]

(* ------------------------------------------------------------------ *)
(* T3: sticky register cost vs n                                       *)
(* ------------------------------------------------------------------ *)

let measure_sticky ~n ~f =
  let q, t = sticky_session ~seed:42 ~n ~f ~byzantine:[] ~scripts:[] in
  let w = measure t ~pid:0 ~name:"w" [ Diff.write_sticky q "v" ] in
  let r = measure t ~pid:1 ~name:"r" [ Diff.read_sticky q ~pid:1 ] in
  ((w.reads, w.writes, w.steps), (r.reads, r.writes, r.steps))

let table_t3 () =
  header
    "T3  Sticky register (Algorithm 2), fault-free: WRITE and READ cost";
  pf "%4s %4s | %24s | %24s\n" "n" "f" "WRITE r/w (steps)" "READ r/w (steps)";
  List.iter
    (fun (n, f) ->
      let (wr, ww, ws), (rr, rw, rs) = measure_sticky ~n ~f in
      pf "%4d %4d | %8d / %4d (%6d) | %8d / %4d (%6d)\n" n f wr ww ws rr rw rs)
    sweep_nf

(* T3b: sticky READ under adversaries *)

let measure_sticky_read_under ~n ~f ~adversary =
  let byz = List.init f (fun i -> n - 1 - i) in
  let q, t =
    sticky_session ~seed:7 ~n ~f ~byzantine:byz
      ~scripts:(scripts_of byz adversary)
  in
  ignore (measure t ~pid:0 ~name:"w" [ Diff.write_sticky q "v" ] : opcost);
  let c = measure t ~pid:1 ~name:"r" [ Diff.read_sticky q ~pid:1 ] in
  ( c.reads,
    c.writes,
    c.steps,
    match last_result t ~pid:1 with
    | Lnd_history.Spec.Sticky_spec.Val v -> v
    | Lnd_history.Spec.Sticky_spec.Done -> None )

let table_t3b () =
  header
    "T3b Sticky READ under f Byzantine processes (reader p1's accesses;\n\
    \    rounds = writes; READ always terminates and returns the written \
     value)";
  pf "%4s %4s | %-14s | %8s %8s %8s | %s\n" "n" "f" "adversary" "reads"
    "rounds" "steps" "result";
  let adversaries =
    [
      ("none", None);
      ("naysayers", Some Lnd_byz.Byz_script.Naysayer);
      ("flip-floppers", Some (Lnd_byz.Byz_script.Flipflop "v"));
    ]
  in
  List.iter
    (fun (n, f) ->
      List.iter
        (fun (name, adv) ->
          let reads, rounds, steps, result =
            measure_sticky_read_under ~n ~f ~adversary:adv
          in
          pf "%4d %4d | %-14s | %8d %8d %8d | %s\n" n f name reads rounds
            steps
            (match result with Some v -> v | None -> "⊥"))
        adversaries)
    [ (4, 1); (7, 2); (10, 3) ]

(* ------------------------------------------------------------------ *)
(* T4: signature-free (this paper) vs signature-based baseline         *)
(* ------------------------------------------------------------------ *)

let measure_sigbase ~n ~f =
  let module Sv = Lnd_sigbase.Sig_verifiable in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
  let oracle = Lnd_crypto.Sigoracle.create () in
  let regs = Sv.alloc space { Sv.n; f } ~oracle in
  let writer = Sv.writer regs in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
         Sv.write writer "v";
         ignore (Sv.sign writer "v")));
  run_q sched;
  let before = Space.stats_of_pid space 1 in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"v" (fun () ->
         ignore (Sv.verify (Sv.reader regs ~pid:1) "v")));
  run_q sched;
  let after = Space.stats_of_pid space 1 in
  ( after.Space.reads - before.Space.reads,
    after.Space.writes - before.Space.writes )

let table_t4 () =
  header
    "T4  VERIFY: signature-free (Algorithm 1) vs signature-based baseline\n\
    \    (reader's own accesses; resilience = max Byzantine f tolerated)";
  pf "%4s | %20s | %20s | %16s | %16s\n" "n" "Alg.1 verify r/w"
    "baseline verify r/w" "Alg.1 max f" "baseline max f";
  List.iter
    (fun (n, f) ->
      let _, _, _, v = measure_verifiable ~n ~f in
      let br, bw = measure_sigbase ~n ~f in
      pf "%4d | %12d / %5d | %12d / %5d | %16s | %16s\n" n v.reads v.writes
        br bw
        (Printf.sprintf "%d  (n>3f)" ((n - 1) / 3))
        (Printf.sprintf "%d  (n>f)+crypto" (n - 1)))
    sweep_nf

(* ------------------------------------------------------------------ *)
(* T5: broadcast family                                                *)
(* ------------------------------------------------------------------ *)

let measure_neq ~n ~f =
  let module B = Lnd_broadcast.Broadcast in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
  let bc = B.Neq.create space sched ~n ~f ~slots:1 ~byzantine:[] () in
  let s0 = Sched.steps sched in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"s" (fun () ->
         B.Neq.bcast bc ~sender:0 ~slot:0 "m"));
  run_q sched;
  let bsteps = Sched.steps sched - s0 in
  let s1 = Sched.steps sched in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"d" (fun () ->
         ignore (B.Neq.deliver bc ~reader:1 ~sender:0 ~slot:0)));
  run_q sched;
  (bsteps, Sched.steps sched - s1)

let measure_st ~n ~f =
  let module St = Lnd_msgpass.Auth_broadcast in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
  let net = Net.create space ~n in
  let delivered = Array.make n false in
  let procs =
    Array.init n (fun pid ->
        let ep = Lnd_msgpass.Transport.of_net (Net.port net ~pid) in
        let t =
          St.create ep ~n ~f ~accept_cb:(fun ~sender:_ ~value:_ ~seq:_ ->
              delivered.(pid) <- true)
        in
        ignore
          (Sched.spawn sched ~pid ~name:"st" ~daemon:true (fun () ->
               St.daemon t));
        t)
  in
  let s0 = Sched.steps sched in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"b" (fun () ->
         ignore (St.broadcast procs.(0) "m")));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"wait" (fun () ->
         while not (Array.for_all (fun d -> d) delivered) do
           Sched.yield ()
         done));
  run_q sched;
  (net.Net.sends, Sched.steps sched - s0)

let table_t5 () =
  header
    "T5  Broadcast family: sticky-based non-equivocating broadcast vs\n\
    \    Srikanth-Toueg authenticated broadcast (message passing)";
  pf "%4s %4s | %26s | %30s\n" "n" "f" "NEQ bcast/deliver steps"
    "ST msgs sent / steps to all-acc";
  List.iter
    (fun (n, f) ->
      let bsteps, dsteps = measure_neq ~n ~f in
      let msgs, ssteps = measure_st ~n ~f in
      pf "%4d %4d | %12d / %11d | %15d / %13d\n" n f bsteps dsteps msgs ssteps)
    [ (4, 1); (7, 2); (10, 3) ]

(* ------------------------------------------------------------------ *)
(* T6: the impossibility experiment (Theorem 23 / Figures 1-3)         *)
(* ------------------------------------------------------------------ *)

let table_t6 () =
  header
    "T6  Theorem 23 executable (Figures 1-3): register-reset adversary vs\n\
    \    test-or-set from either register — attack success at n=3f vs n=3f+1";
  pf "%4s %4s | %-10s | %8s | %9s | %9s | %s\n" "n" "f" "built from"
    "regime" "TEST(p_a)" "TEST'(p_b)" "relay";
  List.iter
    (fun f ->
      List.iter
        (fun n ->
          List.iter
            (fun (impl, impl_name) ->
              let o =
                Lnd_fuzz.Impossibility.run_attack ~seed:5 ~impl ~n ~f ()
              in
              pf "%4d %4d | %-10s | %8s | %9d | %9d | %s\n" n f impl_name
                (if n <= 3 * f then "n<=3f" else "n>3f")
                o.Lnd_fuzz.Impossibility.test_a
                o.Lnd_fuzz.Impossibility.test_b
                (if o.Lnd_fuzz.Impossibility.relay_violated then
                   "VIOLATED (impossibility)"
                 else "holds (Theorems 14/19)"))
            [
              (Lnd_fuzz.Impossibility.Via_verifiable, "verifiable");
              (Lnd_fuzz.Impossibility.Via_sticky, "sticky");
            ])
        [ 3 * f; (3 * f) + 1 ])
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* T7: message-passing emulation (Section 9)                           *)
(* ------------------------------------------------------------------ *)

let measure_emu ~n ~f =
  let module Regemu = Lnd_msgpass.Regemu in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
  let emu = Regemu.create space ~n ~f in
  for pid = 0 to n - 1 do
    ignore
      (Sched.spawn sched ~pid ~name:"rep" ~daemon:true (fun () ->
           Regemu.replica_daemon emu ~pid))
  done;
  let cell =
    Regemu.allocator emu ~name:"x" ~owner:0 ~init:(Univ.inj Univ.int 0) ()
  in
  let m0 = Regemu.messages_sent emu in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
         Cell.write cell (Univ.inj Univ.int 1)));
  run_q sched;
  let wmsgs = Regemu.messages_sent emu - m0 in
  let m1 = Regemu.messages_sent emu in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"r" (fun () -> ignore (Cell.read cell)));
  run_q sched;
  (wmsgs, Regemu.messages_sent emu - m1)

let table_t7 () =
  header
    "T7  Register emulation over message passing (Section 9 corollary):\n\
    \    messages per emulated operation";
  pf "%4s %4s | %16s | %16s\n" "n" "f" "WRITE msgs" "READ msgs";
  List.iter
    (fun (n, f) ->
      let w, r = measure_emu ~n ~f in
      pf "%4d %4d | %16d | %16d\n" n f w r)
    [ (4, 1); (7, 2); (10, 3) ]


(* ------------------------------------------------------------------ *)
(* T8: ablations (design choices from the paper's prose)               *)
(* ------------------------------------------------------------------ *)

let table_t8 () =
  header
    "T8  Ablations: each design choice removed -> predicted failure appears\n\
    \    (see test/test_ablation.ml for the full scenarios)";
  pf "%-34s | %-22s | %s\n" "variant" "paper anchor" "observed";
  (* A2: no-wait write. p1..p4 are very slow: they take no step during
     the first 50,000 steps. *)
  let module Sspec = Lnd_history.Spec.Sticky_spec in
  let a2 nowait seed =
    let q = Quorum.make_relaxed ~n:7 ~f:2 in
    let t =
      Diff.session
        (Policy.only
           (fun sched (fb : Sched.fiber) ->
             Sched.steps sched > 50_000 || fb.pid < 1 || fb.pid > 4)
           (Policy.random ~seed))
        (Diff.sticky_plan q ~byzantine:[] ~scripts:[])
    in
    (* run the client just spawned to its end, paced by a yielding p5 *)
    let pace name =
      let fb = List.nth t.sched.fibers (List.length t.sched.fibers - 1) in
      ignore
        (Sched.spawn t.sched ~pid:5 ~name (fun () ->
             for _ = 1 to 200_000 do
               Sched.yield ()
             done));
      let finished (_ : Sched.t) =
        match fb.Sched.state with Sched.Finished _ -> true | _ -> false
      in
      ignore (Sched.run ~max_steps:4_000_000 ~until:finished t.sched)
    in
    let write_nowait =
      Diff.Job
        {
          op = Sspec.Write "v";
          span = ("WRITE", Some "v");
          prog = (fun _ -> Lnd_sticky.Sticky_core.write_nowait_prog "v");
          result = (fun c () -> (c, Sspec.Done));
          text = (fun () -> "done");
        }
    in
    t.client ~pid:0 ~name:"w"
      [ (if nowait then write_nowait else Diff.write_sticky q "v") ];
    pace "pace";
    t.client ~pid:6 ~name:"r" [ Diff.read_sticky q ~pid:6 ];
    pace "pace2";
    match last_result t ~pid:6 with Sspec.Val v -> v | Sspec.Done -> None
  in
  let count_bot nowait =
    List.length
      (List.filter (fun seed -> a2 nowait seed = None) (List.init 20 (fun i -> i)))
  in
  pf "%-34s | %-22s | READ=⊥ after completed WRITE in %d/20 schedules\n"
    "WRITE without witness wait" "§7.1 remark" (count_bot true);
  pf "%-34s | %-22s | READ=⊥ after completed WRITE in %d/20 schedules\n"
    "Algorithm 2 WRITE (with wait)" "lines 3-5" (count_bot false);
  (* A1 and A3, run as test/test_ablation.ml runs them: each row says
     what the judge and the registers showed. *)
  let module Vcore = Lnd_verifiable.Verifiable_core in
  let module Score = Lnd_sticky.Sticky_core in
  let module Vspec = Lnd_history.Spec.Verifiable_spec in
  let finished (fb : Sched.fiber) (_ : Sched.t) =
    match fb.Sched.state with Sched.Finished _ -> true | Sched.Ready _ -> false
  in
  let newest (t : (_, _, _) Diff.session) =
    List.nth t.sched.fibers (List.length t.sched.fibers - 1)
  in
  (* a raw register write by [pid], as one effect fiber *)
  let put (t : (_, _, _) Diff.session) ~pid reg u =
    Sched.spawn t.sched ~pid ~name:"put" (fun () -> Sched.write (t.regs reg) u)
  in
  (* run until [until], kept going by a yielding non-daemon *)
  let phase sched until =
    ignore
      (Sched.spawn sched ~pid:2 ~name:"pacer" (fun () ->
           for _ = 1 to 200_000 do
             Sched.yield ()
           done));
    match
      Sched.run ~max_steps:(Sched.steps sched + 4_000_000) ~until sched
    with
    | Sched.Condition_met -> ()
    | _ -> failwith "bench T8: a phase got stuck"
  in
  (* A1: Byzantine {p0, p6} plant v, only p1's Help adopts it, a
     strawman VERIFY runs, the coalition erases, a second one runs; what
     the judge says of the history. *)
  let a1_verdict () =
    let q = Quorum.make_relaxed ~n:7 ~f:2 in
    let plan = Diff.verifiable_plan q ~byzantine:[ 0; 6 ] ~scripts:[] in
    let plan =
      { plan with helps = List.filter (fun (pid, _) -> pid = 1) plan.helps }
    in
    let t = Diff.session (Policy.random ~seed:3) plan in
    let set vs = Vcore.enc_vset (Value.Set.of_list vs) in
    let plant0 = put t ~pid:0 (Vcore.R 0) (set [ "v" ]) in
    let plant6 = put t ~pid:6 (Vcore.R 6) (set [ "v" ]) in
    phase t.sched (fun st -> finished plant0 st && finished plant6 st);
    ignore (put t ~pid:5 (Vcore.C 5) (Univ.inj Codecs.counter 1));
    phase t.sched (fun _ ->
        Value.Set.mem "v" (Vcore.dec_vset (t.regs (Vcore.R 1)).Register.value));
    let strawman ~pid =
      t.client ~pid ~name:"strawman"
        [
          Diff.Job
            {
              op = Vspec.Verify "v";
              span = ("VERIFY", Some "v");
              prog = (fun _ -> Vcore.strawman_verify_prog ~q "v");
              result = (fun c ok -> (c, Vspec.Verified ok));
              text = string_of_bool;
            };
        ];
      phase t.sched (finished (newest t))
    in
    strawman ~pid:2;
    let erase0 = put t ~pid:0 (Vcore.R 0) (set []) in
    let erase6 = put t ~pid:6 (Vcore.R 6) (set []) in
    phase t.sched (fun st -> finished erase0 st && finished erase6 st);
    strawman ~pid:3;
    match plan.judge ~correct:(fun pid -> t.correct.(pid)) (t.history ()) with
    | Ok _ -> "relay held"
    | Error m ->
        let rec relay_at i =
          i + 5 <= String.length m
          && (String.sub m i 5 = "RELAY" || relay_at (i + 1))
        in
        if relay_at 0 then "relay violated" else m
  in
  (* A3: an equivocating writer shows a to p1 while p3's lax Help sleeps,
     then b to everyone; the system settles until step 500,000, then p2
     READs with 300,000 steps of its own. *)
  let a3_split_and_stall () =
    let n = 4 in
    let q = Quorum.make_relaxed ~n ~f:1 in
    let plan = Diff.sticky_plan q ~byzantine:[ 0 ] ~scripts:[] in
    let plan =
      {
        plan with
        helps =
          List.map (fun (pid, _) -> (pid, Score.help_lax_prog ~n ~pid)) plan.helps;
      }
    in
    let random = Policy.random ~seed:5 in
    let t = Diff.session random plan in
    let witness j = Score.dec_vopt (t.regs (Score.R j)).Register.value in
    ignore (put t ~pid:0 (Score.E 0) (Score.enc_vopt (Some "a")));
    ignore (put t ~pid:2 (Score.C 2) (Univ.inj Codecs.counter 1));
    Sched.set_choose t.sched
      (Policy.only (fun _ (fb : Sched.fiber) -> fb.pid <> 3 || not fb.daemon) random);
    phase t.sched (fun _ -> witness 1 = Some "a");
    let flip = put t ~pid:0 (Score.E 0) (Score.enc_vopt (Some "b")) in
    Sched.set_choose t.sched random;
    phase t.sched (finished flip);
    ignore
      (Sched.spawn t.sched ~pid:2 ~name:"settle" (fun () ->
           for _ = 1 to 2000 do
             Sched.yield ()
           done));
    ignore (Sched.run ~max_steps:500_000 t.sched);
    let split =
      List.length (List.sort_uniq compare (List.filter_map witness [ 1; 2; 3 ]))
      > 1
    in
    t.client ~pid:2 ~name:"reader" [ Diff.read_sticky q ~pid:2 ];
    let reader = newest t in
    let before = Sched.steps t.sched in
    ignore
      (Sched.run ~max_steps:(before + 300_000) ~until:(finished reader) t.sched);
    (split, Sched.steps t.sched - before = 300_000 && not (finished reader t.sched))
  in
  pf "%-34s | %-22s | %s (test A1)\n" "one-shot strawman VERIFY" "§5.1"
    (a1_verdict ());
  let split, stall = a3_split_and_stall () in
  pf "%-34s | %-22s | witnesses %s; READ %s (test A3)\n"
    "lax witness policy (sticky)" "§7.1"
    (if split then "split" else "agree")
    (if stall then "stalls" else "returns")

(* ------------------------------------------------------------------ *)
(* T9: derived objects built on the registers                          *)
(* ------------------------------------------------------------------ *)

let table_t9 () =
  header
    "T9  Derived objects (Section 1.1/1.2 applications): cost per operation";
  pf "%4s %4s | %-26s | %12s | %12s\n" "n" "f" "object" "op1 steps" "op2 steps";
  List.iter
    (fun (n, f) ->
      (* reliable broadcast object *)
      let space = Space.create ~n in
      let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
      let rb = Lnd_broadcast.Reliable.create space sched ~n ~f ~slots:1 () in
      let s0 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:0 ~name:"b" (fun () ->
             ignore (Lnd_broadcast.Reliable.bcast rb ~sender:0 "m")));
      run_q sched;
      let bsteps = Sched.steps sched - s0 in
      let s1 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:1 ~name:"d" (fun () ->
             ignore (Lnd_broadcast.Reliable.deliver rb ~reader:1 ~sender:0 ~slot:0)));
      run_q sched;
      pf "%4d %4d | %-26s | %12d | %12d\n" n f "reliable broadcast (b/d)"
        bsteps
        (Sched.steps sched - s1);
      (* asset transfer *)
      let space = Space.create ~n in
      let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
      let at =
        Lnd_asset.Asset.create space sched ~n ~f ~slots:1 ~initial_balance:100
          ()
      in
      let s0 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:0 ~name:"t" (fun () ->
             ignore (Lnd_asset.Asset.transfer at ~src:0 ~dst:1 ~amount:10)));
      run_q sched;
      let tsteps = Sched.steps sched - s0 in
      let s1 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:2 ~name:"bal" (fun () ->
             ignore (Lnd_asset.Asset.balance at ~pid:2 ~acct:0)));
      run_q sched;
      pf "%4d %4d | %-26s | %12d | %12d\n" n f "asset transfer (xfer/bal)"
        tsteps
        (Sched.steps sched - s1);
      (* snapshot *)
      let space = Space.create ~n in
      let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
      let snap = Lnd_snapshot.Snapshot.create space sched ~n ~f () in
      let s0 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:0 ~name:"u" (fun () ->
             Lnd_snapshot.Snapshot.update snap ~pid:0 "x"));
      run_q sched;
      let usteps = Sched.steps sched - s0 in
      let s1 = Sched.steps sched in
      ignore
        (Sched.spawn sched ~pid:1 ~name:"s" (fun () ->
             ignore (Lnd_snapshot.Snapshot.scan snap ~pid:1)));
      run_q sched;
      pf "%4d %4d | %-26s | %12d | %12d\n" n f "snapshot (update/scan)"
        usteps
        (Sched.steps sched - s1))
    [ (4, 1); (7, 2) ]

(* ------------------------------------------------------------------ *)
(* T10: fuzz sweep aggregate                                           *)
(* ------------------------------------------------------------------ *)

let table_t10 () =
  header
    "T10 Randomized scenario sweep (lnd_fuzz): 40 seeded scenarios across\n\
    \    both registers and all adversary strategies";
  let count = 40 in
  let failures = ref 0 in
  let total_steps = ref 0 in
  let total_ops = ref 0 in
  let lin_checked = ref 0 in
  for seed = 0 to count - 1 do
    match Lnd_fuzz.Fuzz.run_seed seed with
    | Ok r ->
        total_steps := !total_steps + r.Lnd_fuzz.Fuzz.steps;
        total_ops := !total_ops + r.Lnd_fuzz.Fuzz.operations;
        if r.Lnd_fuzz.Fuzz.checked_linearizability then incr lin_checked
    | Error msg ->
        incr failures;
        pf "  FAIL seed %d: %s\n" seed msg
  done;
  pf "scenarios: %d, failures: %d\n" count !failures;
  pf "total operations: %d, total steps: %d (avg %d steps/scenario)\n"
    !total_ops !total_steps (!total_steps / count);
  pf "full Byzantine-linearizability checked on %d/%d scenarios\n\
     (monitors on all)\n"
    !lin_checked count

(* ------------------------------------------------------------------ *)
(* T11: retransmission overhead under link faults                      *)
(* ------------------------------------------------------------------ *)

let table_t11 () =
  header
    "T11 Retransmission overhead (Rlink over Faultnet), ST broadcast\n\
    \    n=4 f=1, 2 broadcasters x 2 messages; the drop=0 row shows the\n\
    \    zero-fault overhead of the reliable-link layer itself";
  let module Chaos = Lnd_fuzz.Chaos in
  let module Faultnet = Lnd_msgpass.Faultnet in
  let mk_plan ~drop ~cut_len =
    if drop = 0 && cut_len = 0 then Faultnet.zero
    else
      {
        Faultnet.fault_seed = 42;
        drop_pct = drop;
        dup_pct = 0;
        delay_pct = 0;
        max_delay = 0;
        fair_burst = 2;
        partitions =
          (if cut_len = 0 then []
           else
             [
               {
                 Faultnet.cut_from = 200;
                 cut_until = 200 + cut_len;
                 island = [ 2 ];
               };
             ]);
      }
  in
  pf "%6s %9s | %8s | %6s %8s %10s | %8s\n" "drop%" "cut(len)" "steps"
    "data" "retrans" "redundant" "sends";
  List.iter
    (fun (drop, cut_len) ->
      let s =
        {
          Chaos.seed = 7;
          protocol = Chaos.St_broadcast;
          n = 4;
          f = 1;
          plan = mk_plan ~drop ~cut_len;
          adversary = Chaos.No_adversary;
          msgs = 2;
          crashes = [];
          epoch_bump = true;
        }
      in
      match Chaos.run s with
      | Ok r ->
          pf "%6d %9d | %8d | %6d %8d %10d | %8d\n" drop cut_len
            r.Chaos.steps r.Chaos.data_sent r.Chaos.retransmissions
            r.Chaos.redundant r.Chaos.net_stats.Faultnet.sent
      | Error msg -> pf "%6d %9d | FAIL: %s\n" drop cut_len msg)
    [ (0, 0); (10, 0); (20, 0); (40, 0); (20, 1000); (20, 4000) ]

(* ------------------------------------------------------------------ *)
(* T12: durability — WAL throughput and crash-recovery overhead        *)
(* ------------------------------------------------------------------ *)

let table_t12 () =
  header
    "T12 Durability (lib/durable): WAL append/sync/snapshot cost and\n\
    \    recovery replay, then the journaling + crash-recovery overhead\n\
    \    of the chaos register scenario (same seed: volatile baseline vs\n\
    \    the durable stack with a crash-restart injected)";
  let module Disk = Lnd_durable.Disk in
  let module Wal = Lnd_durable.Wal in
  let module Chaos = Lnd_fuzz.Chaos in
  (* WAL throughput in the deterministic cost model: 10k records under
     three sync cadences, then a snapshotted variant, then recovery. *)
  let total = 10_000 in
  let wal_rows =
    List.map
      (fun (label, batch, snap_every) ->
        let d = Disk.create () in
        let w = Wal.create d ~name:"wal" in
        for i = 1 to total do
          Wal.append w (Printf.sprintf "W %d %d" (i mod 7) i);
          if i mod batch = 0 then Wal.sync w;
          if snap_every > 0 && Wal.appended w >= snap_every then
            Wal.snapshot w [ Printf.sprintf "W %d %d" (i mod 7) i ]
        done;
        Wal.sync w;
        let st = Wal.stats w in
        let recovered, _ = Wal.recover d ~name:"wal" in
        (label, batch, st, Disk.fsync_count d, List.length recovered))
      [
        ("sync each", 1, 0);
        ("sync /16", 16, 0);
        ("sync /256", 256, 0);
        ("snapshot /512", 16, 512);
      ]
  in
  pf "%-14s | %8s %8s %9s %10s | %9s\n" "cadence" "appends" "fsyncs"
    "snapshots" "bytes" "replayed";
  List.iter
    (fun (label, _, st, fsyncs, replayed) ->
      pf "%-14s | %8d %8d %9d %10d | %9d\n" label st.Wal.appends fsyncs
        st.Wal.snapshots st.Wal.bytes replayed)
    wal_rows;
  (* The end-to-end price: the same seeded register scenario run
     volatile (crash events stripped — no WAL anywhere) and with the
     durable stack plus an actual crash-restart. *)
  let base = Chaos.generate_crash 5 in
  pf "\n%-28s | %8s | %6s %8s | %7s\n" "chaos register scenario" "steps"
    "data" "retrans" "fsyncs";
  let chaos_rows =
    List.filter_map
      (fun (label, s) ->
        match Chaos.run s with
        | Ok r ->
            pf "%-28s | %8d | %6d %8d | %7d\n" label r.Chaos.steps
              r.Chaos.data_sent r.Chaos.retransmissions r.Chaos.fsyncs;
            Some (label, r)
        | Error msg ->
            pf "%-28s | FAIL: %s\n" label msg;
            None)
      [
        ("volatile (no crash)", { base with Chaos.crashes = [] });
        ("durable + crash + recovery", base);
      ]
  in
  (* Machine-readable copy for the repo root. *)
  let oc = open_out "BENCH_T12.json" in
  let j = Printf.fprintf in
  j oc "{\n  \"table\": \"T12\",\n  \"wal\": [\n";
  List.iteri
    (fun i (label, batch, st, fsyncs, replayed) ->
      j oc
        "    {\"cadence\": %S, \"batch\": %d, \"appends\": %d, \"fsyncs\": \
         %d, \"snapshots\": %d, \"bytes\": %d, \"replayed\": %d}%s\n"
        label batch st.Wal.appends fsyncs st.Wal.snapshots st.Wal.bytes
        replayed
        (if i = List.length wal_rows - 1 then "" else ","))
    wal_rows;
  j oc "  ],\n  \"chaos\": [\n";
  List.iteri
    (fun i (label, r) ->
      j oc
        "    {\"scenario\": %S, \"seed\": %d, \"steps\": %d, \"data_sent\": \
         %d, \"retransmissions\": %d, \"redundant\": %d, \"fsyncs\": %d}%s\n"
        label r.Chaos.scenario.Chaos.seed r.Chaos.steps r.Chaos.data_sent
        r.Chaos.retransmissions r.Chaos.redundant r.Chaos.fsyncs
        (if i = List.length chaos_rows - 1 then "" else ","))
    chaos_rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T12.json)\n"

(* ------------------------------------------------------------------ *)
(* T13: observability — trace-derived metrics registry                 *)
(* ------------------------------------------------------------------ *)

let table_t13 () =
  header
    "T13 Observability (lib/obs): chaos scenarios replayed with the\n\
    \    recording trace sink installed; the metrics registry is harvested\n\
    \    from the causal event stream (Metrics.of_events). The same runs\n\
    \    under the default Null sink record nothing and stay byte-identical";
  let module Chaos = Lnd_fuzz.Chaos in
  let module Trace = Lnd_obs.Trace in
  let module Metrics = Lnd_obs.Metrics in
  let rows =
    List.map
      (fun (label, s) ->
        let _, tr = Chaos.run_traced s in
        let m = Metrics.of_events (Trace.events tr) in
        (label, Trace.size tr, m))
      [
        ("st-broadcast, link faults", Chaos.generate 4);
        ("register, link faults", Chaos.generate 1);
        ("register, crash+recover", Chaos.generate_crash 3);
      ]
  in
  let sum_suffix m suffix =
    List.fold_left
      (fun acc n ->
        if
          String.length n > 5 + String.length suffix
          && String.sub n 0 5 = "span."
          && String.sub n
               (String.length n - String.length suffix)
               (String.length suffix)
             = suffix
        then acc + Metrics.counter m n
        else acc)
      0 (Metrics.names m)
  in
  pf "%-26s | %7s %5s %4s | %7s %5s %5s | %7s %6s | %6s %6s\n" "scenario"
    "events" "spans" "abrt" "deliver" "drop" "dup" "retrans" "redund" "fsyncs"
    "bytes";
  List.iter
    (fun (label, events, m) ->
      pf "%-26s | %7d %5d %4d | %7d %5d %5d | %7d %6d | %6d %6d\n" label
        events
        (sum_suffix m ".count")
        (sum_suffix m ".aborted")
        (Metrics.counter m "net.deliver")
        (Metrics.counter m "net.drop")
        (Metrics.counter m "net.dup")
        (Metrics.counter m "rlink.retransmissions")
        (Metrics.counter m "rlink.redundant")
        (Metrics.counter m "wal.fsyncs")
        (Metrics.counter m "wal.bytes"))
    rows;
  let phist m name =
    match Metrics.histogram m name with
    | Some h -> Printf.sprintf "%d/%d (n=%d)" h.Metrics.p50 h.Metrics.p95 h.Metrics.count
    | None -> "-"
  in
  pf "\n%-26s | %16s | %16s | %16s\n" "latency (p50/p95 steps)" "quorum depth"
    "fsync latency" "delay ticks";
  List.iter
    (fun (label, _, m) ->
      pf "%-26s | %16s | %16s | %16s\n" label
        (phist m "reg.quorum.count")
        (phist m "wal.fsync.latency")
        (phist m "net.delay.ticks"))
    rows;
  (* Machine-readable copy for the repo root / CI artifact. *)
  let oc = open_out "BENCH_T13.json" in
  let j = Printf.fprintf in
  j oc "{\n  \"table\": \"T13\",\n  \"scenarios\": [\n";
  List.iteri
    (fun i (label, events, m) ->
      let c = Metrics.counter m in
      let h name =
        match Metrics.histogram m name with
        | Some h ->
            Printf.sprintf "{\"p50\": %d, \"p95\": %d, \"count\": %d}"
              h.Metrics.p50 h.Metrics.p95 h.Metrics.count
        | None -> "null"
      in
      j oc
        "    {\"scenario\": %S, \"events\": %d, \"spans\": %d, \"aborted\": \
         %d,\n\
        \     \"deliver\": %d, \"drop\": %d, \"dup\": %d, \"retrans\": %d, \
         \"redundant\": %d,\n\
        \     \"fsyncs\": %d, \"wal_bytes\": %d,\n\
        \     \"quorum_depth\": %s, \"fsync_latency\": %s, \"delay_ticks\": \
         %s}%s\n"
        label events
        (sum_suffix m ".count")
        (sum_suffix m ".aborted")
        (c "net.deliver") (c "net.drop") (c "net.dup")
        (c "rlink.retransmissions")
        (c "rlink.redundant") (c "wal.fsyncs") (c "wal.bytes")
        (h "reg.quorum.count")
        (h "wal.fsync.latency")
        (h "net.delay.ticks")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T13.json)\n"

(* ------------------------------------------------------------------ *)
(* T14: accountability — auditor overhead and blame quality            *)
(* ------------------------------------------------------------------ *)

let table_t14 () =
  header
    "T14 Accountability (lib/audit): the same chaos batches replayed with\n\
    \    the forensic auditor fanned out next to the recording trace.\n\
    \    Overhead is the claim volume the auditor digests online; quality\n\
    \    is recall over detectable Byzantine pids with zero false blame";
  let module Chaos = Lnd_fuzz.Chaos in
  let module Audit = Lnd_audit.Audit in
  let seeds = 20 in
  let sweep label gen =
    let runs = ref 0
    and failed = ref 0
    and events = ref 0
    and claims = ref 0
    and stalls = ref 0
    and accusations = ref 0
    and detectable = ref 0
    and attributed = ref 0
    and false_blame = ref 0 in
    for seed = 1 to seeds do
      let s = gen seed in
      let out, _tr, rp = Chaos.run_audited ~keep:Chaos.compact_keep s in
      incr runs;
      (match out with Ok _ -> () | Error _ -> incr failed);
      events := !events + rp.Audit.rp_events;
      claims := !claims + rp.Audit.rp_claims;
      stalls := !stalls + rp.Audit.rp_stalls;
      accusations := !accusations + List.length rp.Audit.rp_accusations;
      let acc = Audit.accused rp in
      let det = Chaos.detectable s in
      let byz = Chaos.byzantine_pids s in
      detectable := !detectable + List.length det;
      attributed :=
        !attributed + List.length (List.filter (fun p -> List.mem p acc) det);
      false_blame :=
        !false_blame
        + List.length (List.filter (fun p -> not (List.mem p byz)) acc)
    done;
    ( label,
      !runs,
      !failed,
      !events,
      !claims,
      !stalls,
      !accusations,
      !detectable,
      !attributed,
      !false_blame )
  in
  let rows =
    [
      sweep "link chaos (seeds 1-20)" Chaos.generate;
      sweep "crash chaos (seeds 1-20)" Chaos.generate_crash;
    ]
  in
  pf "%-24s | %4s %4s | %7s %7s %6s | %5s %5s %5s %5s\n" "batch" "runs"
    "fail" "events" "claims" "stalls" "accus" "det" "attr" "false";
  List.iter
    (fun (label, runs, failed, events, claims, stalls, accus, det, attr, fb) ->
      pf "%-24s | %4d %4d | %7d %7d %6d | %5d %5d %5d %5d\n" label runs
        failed events claims stalls accus det attr fb)
    rows;
  let oc = open_out "BENCH_T14.json" in
  let j = Printf.fprintf in
  j oc "{\n  \"table\": \"T14\",\n  \"sweeps\": [\n";
  List.iteri
    (fun i (label, runs, failed, events, claims, stalls, accus, det, attr, fb)
       ->
      j oc
        "    {\"batch\": %S, \"runs\": %d, \"failed\": %d, \"events\": %d, \
         \"claims\": %d,\n\
        \     \"stalls\": %d, \"accusations\": %d, \"detectable\": %d, \
         \"attributed\": %d, \"false_blame\": %d}%s\n"
        label runs failed events claims stalls accus det attr fb
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T14.json)\n"

let table_t15 () =
  header
    "T15 Model checking (lib/runtime Explore + lib/fuzz Mcheck): DPOR with\n\
    \    sleep sets and park-on-yield vs the naive DFS baseline, on the\n\
    \    paper's smallest configurations (n = 4, f = 1, one scripted\n\
    \    colluder). DPOR exhausts the bounded space (preemption bound 0);\n\
    \    the naive DFS blows the same schedule budget without finishing,\n\
    \    so its reduction factor is a lower bound";
  let module M = Lnd_fuzz.Mcheck in
  let module E = Lnd_runtime.Explore in
  let max_steps = 600 in
  (* Explore one config, summing register accesses over its runs
     (instance.last_accesses counts one run, off its Space's counters,
     the steps a rewind skipped included) and the scheduler steps the
     runs actually executed: a replayed step counts, a rewound one does
     not. *)
  let measure cfg ~mode ~max_runs =
    let i = M.instance cfg in
    let total = ref 0 in
    let executed = ref 0 in
    let current = ref None in
    let settle () =
      match !current with
      | Some (s, at_start) -> executed := !executed + Sched.executed s - at_start
      | None -> ()
    in
    let make p =
      total := !total + i.M.last_accesses ();
      settle ();
      let s = i.M.make p in
      current := Some (s, Sched.executed s);
      s
    in
    let r =
      Fun.protect ~finally:i.M.teardown (fun () ->
          match mode with
          | `Dpor ->
              E.dpor ~make ~check:i.M.check ~max_steps ~max_runs
                ~max_preempts:0 ~note:(M.note cfg) ()
          | `Naive ->
              E.exhaustive ~make ~check:i.M.check ~max_steps ~max_runs
                ~note:(M.note cfg) ())
    in
    total := !total + i.M.last_accesses ();
    settle ();
    (r, !total, !executed)
  in
  let configs =
    [
      ("sticky n=4 f=1", M.default, 10_000);
      ( "verifiable n=4 f=1",
        { M.default with M.model = M.Verifiable; reads = 2 },
        30_000 );
      ("test-or-set n=4 f=1", { M.default with M.model = M.Testorset }, 10_000);
    ]
  in
  let rows =
    List.map
      (fun (label, cfg, naive_budget) ->
        let nv, nv_acc, _ = measure cfg ~mode:`Naive ~max_runs:naive_budget in
        let dp, dp_acc, dp_exec =
          measure cfg ~mode:`Dpor ~max_runs:naive_budget
        in
        let nv_scheds = nv.E.runs + nv.E.pruned in
        let dp_scheds = dp.E.runs + dp.E.pruned + dp.E.blocked in
        (label, nv, nv_scheds, nv_acc, dp, dp_scheds, dp_acc, dp_exec))
      configs
  in
  pf "%-20s | %9s %5s | %9s %5s %7s | %7s\n" "config" "dfs runs" "exh"
    "dpor run" "exh" "races" "reduct";
  List.iter
    (fun (label, nv, nv_scheds, _, dp, dp_scheds, _, _) ->
      pf "%-20s | %9d %5b | %9d %5b %7d | >=%4.0fx\n" label nv_scheds
        nv.E.exhausted dp_scheds dp.E.exhausted dp.E.races
        (float_of_int nv_scheds /. float_of_int dp_scheds))
    rows;
  let oc = open_out "BENCH_T15.json" in
  let j = Printf.fprintf in
  j oc "{\n  \"table\": \"T15\",\n  \"max_steps\": %d,\n  \"configs\": [\n"
    max_steps;
  List.iteri
    (fun i (label, nv, nv_scheds, nv_acc, dp, dp_scheds, dp_acc, dp_exec) ->
      j oc
        "    {\"config\": %S,\n\
        \     \"naive\": {\"schedules\": %d, \"runs\": %d, \"exhausted\": %b, \
         \"accesses\": %d},\n\
        \     \"dpor\": {\"schedules\": %d, \"runs\": %d, \"blocked\": %d, \
         \"races\": %d, \"exhausted\": %b, \"accesses\": %d, \
         \"max_depth\": %d, \"executed_steps\": %d},\n\
        \     \"reduction_at_least\": %.1f}%s\n"
        label nv_scheds nv.E.runs nv.E.exhausted nv_acc dp_scheds dp.E.runs
        dp.E.blocked dp.E.races dp.E.exhausted dp_acc dp.E.max_depth dp_exec
        (float_of_int nv_scheds /. float_of_int dp_scheds)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T15.json)\n"

let table_t16 () =
  header
    (Printf.sprintf
       "T16 Parallel backend (lib/runtime Domains + lib/parallel): the pure\n\
       \    protocol cores driven on OCaml 5 domains — a run's processes\n\
       \    spread over at most one domain per core, atomic registers, real\n\
       \    preemption — measured end to end in operations per wall-clock\n\
       \    second. Every run's history is re-checked by the spec-level\n\
       \    acceptance used by the differential conformance suite; a\n\
       \    rejected run fails the bench. All workloads are n = 4 processes;\n\
       \    this host runs them on %d domains"
       (min 4 (Domain.recommended_domain_count ())));
  let module Parallel = Lnd_parallel.Parallel in
  (* Fixed 4-process workloads (the seed only names the row: every field
     the backends read is pinned explicitly). *)
  let base proto =
    {
      Diff.seed = 0;
      proto;
      n = 4;
      f = 1;
      tos_verifiable = false;
      scripts = [];
      script_value = "a";
      writes = 2;
      programs = [];
    }
  in
  let r2 = [ (1, [ Diff.I_read; Diff.I_read ]); (2, [ Diff.I_read ]) ] in
  let t2 = [ (1, [ Diff.I_test; Diff.I_test ]); (2, [ Diff.I_test ]) ] in
  let configs =
    [
      ( "sticky n=4 honest",
        { (base Diff.Sticky) with Diff.programs = r2 @ [ (3, [ Diff.I_read ]) ] }
      );
      ( "sticky n=4 byz",
        {
          (base Diff.Sticky) with
          Diff.scripts = [ (3, [ 1; 2; 0; 4 ]) ];
          programs = r2;
        } );
      ( "verifiable n=4 honest",
        {
          (base Diff.Verifiable) with
          Diff.programs =
            [
              (1, [ Diff.I_read; Diff.I_verify "a" ]);
              (2, [ Diff.I_verify "b" ]);
              (3, [ Diff.I_verify "a" ]);
            ];
        } );
      ( "test-or-set n=4 sticky",
        { (base Diff.Testorset) with Diff.programs = t2 @ [ (3, [ Diff.I_test ]) ] }
      );
      ( "test-or-set n=4 verif",
        {
          (base Diff.Testorset) with
          Diff.tos_verifiable = true;
          programs = t2 @ [ (3, [ Diff.I_test ]) ];
        } );
    ]
  in
  let iters = 25 in
  let measure w =
    (* one warm-up run, then [iters] timed runs *)
    let warm = Parallel.run w in
    (match warm.Diff.verdict with
    | Ok () -> ()
    | Error m -> failwith ("T16: domains run rejected: " ^ m));
    let ops = ref 0 and steps = ref 0 in
    let t0 =
      (Unix.gettimeofday ()
      [@lnd.allow
        "determinism: T16 measures the domains backend's real wall-clock \
         throughput; nothing deterministic depends on this value"])
    in
    for _ = 1 to iters do
      let r = Parallel.run w in
      (match r.Diff.verdict with
      | Ok () -> ()
      | Error m -> failwith ("T16: domains run rejected: " ^ m));
      ops := !ops + r.Diff.ops;
      steps := !steps + r.Diff.steps
    done;
    let dt =
      (Unix.gettimeofday ()
      [@lnd.allow
        "determinism: T16 measures the domains backend's real wall-clock \
         throughput; nothing deterministic depends on this value"])
      -. t0
    in
    (!ops, !steps, dt)
  in
  let rows =
    List.map
      (fun (label, w) ->
        let ops, steps, dt = measure w in
        (label, ops, steps, dt, float_of_int ops /. dt))
      configs
  in
  pf "%-25s | %6s %10s | %9s | %12s\n" "workload (x25 runs)" "ops" "steps"
    "seconds" "ops/sec";
  List.iter
    (fun (label, ops, steps, dt, rate) ->
      pf "%-25s | %6d %10d | %9.3f | %12.0f\n" label ops steps dt rate)
    rows;
  let oc = open_out "BENCH_T16.json" in
  let j = Printf.fprintf in
  j oc
    "{\n\
    \  \"table\": \"T16\",\n\
    \  \"backend\": \"domains\",\n\
    \  \"processes_per_run\": 4,\n\
    \  \"iterations\": %d,\n\
    \  \"configs\": [\n"
    iters;
  List.iteri
    (fun i (label, ops, steps, dt, rate) ->
      j oc
        "    {\"config\": %S, \"ops\": %d, \"machine_steps\": %d, \
         \"seconds\": %.4f, \"ops_per_sec\": %.1f}%s\n"
        label ops steps dt rate
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T16.json)\n"

(* ------------------------------------------------------------------ *)
(* T17: observability allocation — the record hot path                 *)
(* ------------------------------------------------------------------ *)

let table_t17 () =
  header
    "T17 Observability allocation (lib/obs): heap words allocated per\n\
    \    event on the trace-recording hot path. 'list sink' is the\n\
    \    pre-arena implementation (one cons cell per event); 'arena' is\n\
    \    the preallocated per-domain buffer Trace records into now. The\n\
    \    end-to-end rows include Obs.emit's event construction, which\n\
    \    both sinks pay alike — the record step itself must be zero";
  let module Obs = Lnd_obs.Obs in
  let module Trace = Lnd_obs.Trace in
  let n = 200_000 in
  let value = Univ.inj Codecs.counter 0 in
  let ev : Obs.event =
    {
      Obs.at = 0;
      pid = 0;
      span = 1;
      kind = Obs.Shm_access { access = `Read; reg = "R"; value };
    }
  in
  (* Heap words allocated per call of [f], measured over [n] calls. *)
  let words_per_call f =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to n do
      f ()
    done;
    let a1 = Gc.allocated_bytes () in
    (a1 -. a0) /. float_of_int n /. float_of_int (Sys.word_size / 8)
  in
  let with_list_sink use =
    let events = ref [] in
    let sink = { Obs.emit = (fun e -> events := e :: !events) } in
    let r = use sink in
    ignore (Sys.opaque_identity !events);
    r
  in
  let with_arena_sink use =
    let tr = Trace.create ~capacity:(n + 8) () in
    let sink = Trace.sink tr in
    sink.Obs.emit ev;
    (* warm-up: first record allocates the arena lazily *)
    use sink
  in
  let rows =
    [
      ( "record: list sink (before)",
        with_list_sink (fun s -> words_per_call (fun () -> s.Obs.emit ev)) );
      ( "record: arena (after)",
        with_arena_sink (fun s -> words_per_call (fun () -> s.Obs.emit ev)) );
      ( "emit+record: list sink",
        with_list_sink (fun s ->
            Obs.install s;
            let w =
              words_per_call (fun () ->
                  Obs.emit (Obs.Shm_access { access = `Read; reg = "R"; value }))
            in
            Obs.uninstall ();
            w) );
      ( "emit+record: arena",
        with_arena_sink (fun s ->
            Obs.install s;
            let w =
              words_per_call (fun () ->
                  Obs.emit (Obs.Shm_access { access = `Read; reg = "R"; value }))
            in
            Obs.uninstall ();
            w) );
    ]
  in
  pf "%-28s | %16s\n" "path (x200k events)" "words/event";
  List.iter (fun (label, w) -> pf "%-28s | %16.2f\n" label w) rows;
  let oc = open_out "BENCH_T17.json" in
  let j = Printf.fprintf in
  j oc "{\n  \"table\": \"T17\",\n  \"events\": %d,\n  \"rows\": [\n" n;
  List.iteri
    (fun i (label, w) ->
      j oc "    {\"path\": %S, \"words_per_event\": %.2f}%s\n" label w
        (if i = List.length rows - 1 then "" else ","))
    rows;
  j oc "  ]\n}\n";
  close_out oc;
  pf "(machine-readable copy written to BENCH_T17.json)\n"

(* ------------------------------------------------------------------ *)
(* The regression gate: `bench check`                                  *)
(* ------------------------------------------------------------------ *)

(* Per-table tolerance rules, documented in the report and in
   EXPERIMENTS.md:
   - T12, T13, T14, T15: every field exact (0%) — WAL cadences, chaos
     traces, audited chaos batches (zero false blame) and DPOR / naive-DFS
     explorations replay deterministically in the simulator.
   - T16: "ops" and structure exact (the workloads are pinned), but
     machine_steps / seconds / ops_per_sec are wall-clock artifacts of
     real preemption — ignored.
   - T17: the arena record-path row must stay EXACTLY 0.00 words/event
     (the acceptance invariant); the other rows are context — their
     absolute counts jitter with GC accounting — and are not gated. *)
let check_rules table path =
  match table with
  | "T16" ->
      let suffix s =
        let ls = String.length s and lp = String.length path in
        lp >= ls && String.sub path (lp - ls) ls = s
      in
      if suffix ".machine_steps" || suffix ".seconds" || suffix ".ops_per_sec"
      then Baseline.Ignore
      else Baseline.Exact
  | "T17" ->
      if path = "rows[1].words_per_event" (* record: arena (after) *) then
        Baseline.Exact
      else if Filename.check_suffix path ".words_per_event" then
        Baseline.Ignore
      else Baseline.Exact
  | _ -> Baseline.Exact

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_tables () =
  let specs =
    [
      ("T12", "BENCH_T12.json", table_t12);
      ("T13", "BENCH_T13.json", table_t13);
      ("T14", "BENCH_T14.json", table_t14);
      ("T15", "BENCH_T15.json", table_t15);
      ("T16", "BENCH_T16.json", table_t16);
      ("T17", "BENCH_T17.json", table_t17);
    ]
  in
  (* Snapshot the committed baselines first: regenerating overwrites the
     files in place. *)
  let baselines =
    List.map
      (fun (table, file, regen) ->
        let committed =
          try Some (read_file file) with Sys_error _ -> None
        in
        (table, file, regen, committed))
      specs
  in
  let report = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (fun s -> Buffer.add_string report s) fmt in
  bpf "bench regression gate: fresh tables vs committed BENCH_*.json\n";
  bpf
    "tolerances: T12/T13/T14/T15 exact; T16 ops exact, wall-clock fields \
     ignored; T17 arena record path exactly 0.00 words/event, other rows \
     informational\n\n";
  let failures = ref 0 in
  List.iter
    (fun (table, file, regen, committed) ->
      match committed with
      | None ->
          incr failures;
          bpf "%s: FAIL — no committed baseline %s\n" table file
      | Some committed -> (
          regen ();
          let fresh = read_file file in
          match (Baseline.parse committed, Baseline.parse fresh) with
          | Error m, _ ->
              incr failures;
              bpf "%s: FAIL — committed %s unparseable: %s\n" table file m
          | _, Error m ->
              incr failures;
              bpf "%s: FAIL — regenerated %s unparseable: %s\n" table file m
          | Ok b, Ok f -> (
              match Baseline.compare_flat ~rules:(check_rules table) b f with
              | [] -> bpf "%s: ok (within tolerance)\n" table
              | ms ->
                  incr failures;
                  bpf "%s: FAIL — %d field(s) out of tolerance:\n" table
                    (List.length ms);
                  List.iter (fun m -> bpf "  %s\n" m) ms)))
    baselines;
  let oc = open_out "bench-check-report.txt" in
  output_string oc (Buffer.contents report);
  close_out oc;
  print_string (Buffer.contents report);
  pf "(report written to bench-check-report.txt)\n";
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks                                *)
(* ------------------------------------------------------------------ *)

let bench_wallclock () =
  header "Wall-clock micro-benchmarks (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let scenario_verify n f () =
    let q, t = verifiable_session ~seed:42 ~n ~f ~byzantine:[] ~scripts:[] in
    t.client ~pid:0 ~name:"w" [ Diff.write_verifiable "v"; Diff.sign "v" ];
    t.client ~pid:1 ~name:"v" [ Diff.verify q ~pid:1 "v" ];
    run_q t.sched
  in
  let scenario_sticky n f () =
    let q, t = sticky_session ~seed:42 ~n ~f ~byzantine:[] ~scripts:[] in
    t.client ~pid:0 ~name:"w" [ Diff.write_sticky q "v" ];
    t.client ~pid:1 ~name:"r" [ Diff.read_sticky q ~pid:1 ];
    run_q t.sched
  in
  let scenario_sigbase n f () =
    let module Sv = Lnd_sigbase.Sig_verifiable in
    let space = Space.create ~n in
    let sched = Sched.create ~space ~choose:(Policy.random ~seed:42) in
    let oracle = Lnd_crypto.Sigoracle.create () in
    let regs = Sv.alloc space { Sv.n; f } ~oracle in
    let writer = Sv.writer regs in
    ignore
      (Sched.spawn sched ~pid:0 ~name:"w" (fun () ->
           Sv.write writer "v";
           ignore (Sv.sign writer "v")));
    ignore
      (Sched.spawn sched ~pid:1 ~name:"v" (fun () ->
           ignore (Sv.verify (Sv.reader regs ~pid:1) "v")));
    run_q sched
  in
  let scenario_testorset () =
    let q = Quorum.make_relaxed ~n:4 ~f:1 in
    let t =
      Diff.session (Policy.random ~seed:42)
        (Diff.testorset_sticky_plan q ~byzantine:[] ~scripts:[])
    in
    t.client ~pid:0 ~name:"s" [ Diff.set_sticky q ];
    t.client ~pid:1 ~name:"t" [ Diff.test_sticky q ~pid:1 ];
    run_q t.sched
  in
  let tests =
    Test.make_grouped ~name:"lie_not_deny" ~fmt:"%s %s"
      [
        Test.make ~name:"verifiable write+sign+verify n=4"
          (Staged.stage (scenario_verify 4 1));
        Test.make ~name:"verifiable write+sign+verify n=7"
          (Staged.stage (scenario_verify 7 2));
        Test.make ~name:"verifiable write+sign+verify n=10"
          (Staged.stage (scenario_verify 10 3));
        Test.make ~name:"sticky write+read n=4"
          (Staged.stage (scenario_sticky 4 1));
        Test.make ~name:"sticky write+read n=7"
          (Staged.stage (scenario_sticky 7 2));
        Test.make ~name:"sticky write+read n=10"
          (Staged.stage (scenario_sticky 10 3));
        Test.make ~name:"sig-baseline write+sign+verify n=4"
          (Staged.stage (scenario_sigbase 4 1));
        Test.make ~name:"sig-baseline write+sign+verify n=10"
          (Staged.stage (scenario_sigbase 10 3));
        Test.make ~name:"test-or-set set+test n=4"
          (Staged.stage scenario_testorset);
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  pf "%-55s | %14s | %6s\n" "scenario" "time/run" "r²";
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square r with Some x -> x | None -> nan in
      let time =
        if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
        else Printf.sprintf "%.1f µs" (est /. 1e3)
      in
      pf "%-55s | %14s | %6.4f\n" name time r2)
    rows

let () =
  (* [bench/main.exe t12] regenerates just the durability table (and its
     BENCH_T12.json) without paying for the wall-clock suite. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t12" then begin
    table_t12 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t13" then begin
    table_t13 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t14" then begin
    table_t14 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t15" then begin
    table_t15 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t16" then begin
    table_t16 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "t17" then begin
    table_t17 ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "check" then begin
    check_tables ();
    exit 0
  end;
  pf
    "lie_not_deny benchmark harness — experiment tables for the PODC'25 \
     paper\n\
     \"You can lie but not deny\" (Hu & Toueg). See EXPERIMENTS.md.\n";
  table_t1 ();
  table_t2 ();
  table_t2b ();
  table_t3 ();
  table_t3b ();
  table_t4 ();
  table_t5 ();
  table_t6 ();
  table_t7 ();
  table_t8 ();
  table_t9 ();
  table_t10 ();
  table_t11 ();
  table_t12 ();
  table_t13 ();
  table_t14 ();
  table_t15 ();
  table_t16 ();
  table_t17 ();
  bench_wallclock ();
  pf "\nAll tables regenerated.\n"
