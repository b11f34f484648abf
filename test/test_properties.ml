(* Property-based tests (QCheck): substrate invariants, checker soundness
   on generated sequential histories, and randomized whole-system runs of
   Algorithms 1 and 2 checked for the paper's properties. *)

open Lnd_support
module History = Lnd_history.History
module Spec = Lnd_history.Spec

let to_alcotest = QCheck_alcotest.to_alcotest

(* ---------------- substrate properties ---------------- *)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng: int within bounds" ~count:200
    QCheck.(pair int small_int)
    (fun (seed, b) ->
      let b = (abs b mod 1000) + 1 in
      let r = Rng.create seed in
      let x = Rng.int r b in
      x >= 0 && x < b)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng: deterministic per seed" ~count:100 QCheck.int
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.init 10 (fun _ -> Rng.int a 1000)
      = List.init 10 (fun _ -> Rng.int b 1000))

let prop_univ_roundtrip =
  QCheck.Test.make ~name:"univ: string roundtrip" ~count:200
    QCheck.printable_string (fun s ->
      Univ.prj Univ.string (Univ.inj Univ.string s) = Some s)

let prop_univ_vset_roundtrip =
  QCheck.Test.make ~name:"univ: value-set roundtrip" ~count:100
    QCheck.(list printable_string)
    (fun l ->
      let s = Value.Set.of_list l in
      match Univ.prj Codecs.vset (Univ.inj Codecs.vset s) with
      | Some s' -> Value.Set.equal s s'
      | None -> false)

(* ---------------- checker soundness ---------------- *)

(* Any history generated by executing operations sequentially against the
   sequential spec is linearizable. *)
let arbitrary_vop =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Spec.Verifiable_spec.Write (string_of_int (v mod 4))) small_int;
        return Spec.Verifiable_spec.Read;
        map (fun v -> Spec.Verifiable_spec.Sign (string_of_int (v mod 4))) small_int;
        map (fun v -> Spec.Verifiable_spec.Verify (string_of_int (v mod 4))) small_int;
      ])

let prop_sequential_histories_linearizable =
  let module V = Spec.Verifiable_spec in
  let module VC = Spec.Checker (V) in
  QCheck.Test.make ~name:"checker: sequential executions linearizable"
    ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) arbitrary_vop))
    (fun ops ->
      let t = ref 0 in
      let stamp () = incr t; !t in
      let _, entries =
        List.fold_left
          (fun (st, acc) op ->
            let st', res = V.apply st op in
            let inv = stamp () in
            let rt = stamp () in
            (st', { History.pid = 0; op; inv; ret = Some (res, rt) } :: acc))
          (V.init, []) ops
      in
      VC.linearizable { History.entries })

(* A sticky history in which a ⊥-read strictly follows a v-read is never
   linearizable, whatever else is around it. *)
let prop_sticky_bot_after_value_rejected =
  let module S = Spec.Sticky_spec in
  let module SC = Spec.Checker (S) in
  QCheck.Test.make ~name:"checker: bot-after-value always rejected" ~count:50
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let g1 = (a mod 5) + 1 and g2 = (b mod 5) + 1 in
      let entries =
        [
          { History.pid = 0; op = S.Write "v"; inv = 1; ret = Some (S.Done, 2) };
          {
            History.pid = 1;
            op = S.Read;
            inv = 10;
            ret = Some (S.Val (Some "v"), 10 + g1);
          };
          {
            History.pid = 2;
            op = S.Read;
            inv = 20 + g1;
            ret = Some (S.Val None, 20 + g1 + g2);
          };
        ]
      in
      not (SC.linearizable { History.entries }))

(* ---------------- randomized whole-system runs ---------------- *)

(* Random schedules + random reader programs on the verifiable register
   with a correct writer: history always Byzantine-linearizable and every
   operation terminates. *)
let prop_verifiable_random_runs =
  QCheck.Test.make ~name:"algorithm 1: random runs linearizable" ~count:20
    QCheck.(pair int (int_range 0 2))
    (fun (seed, extra_ops) ->
      let module Diff = Lnd_parallel.Diff in
      let module Sched = Lnd_runtime.Sched in
      let module Policy = Lnd_runtime.Policy in
      let n = 4 and f = 1 in
      let q = Quorum.make_relaxed ~n ~f in
      let t =
        Diff.session (Policy.random ~seed)
          (Diff.verifiable_plan q ~byzantine:[] ~scripts:[])
      in
      t.client ~pid:0 ~name:"writer"
        ([ Diff.write_verifiable "a"; Diff.sign "a" ]
        @ (if extra_ops > 0 then [ Diff.write_verifiable "b" ] else [])
        @ if extra_ops > 1 then [ Diff.sign "b" ] else []);
      for pid = 1 to n - 1 do
        t.client ~pid
          ~name:(Printf.sprintf "r%d" pid)
          (Diff.verify q ~pid "a"
          :: (if pid mod 2 = 0 then [ Diff.read_verifiable ] else []))
      done;
      match Sched.run ~max_steps:2_000_000 t.sched with
      | Sched.Quiescent ->
          Lnd_history.Byzlin.verifiable ~writer:0
            ~correct:(fun _ -> true)
            (t.history ())
      | _ -> false)

(* Same for the sticky register with a Byzantine equivocating writer:
   agreement among correct readers in every random run. *)
let prop_sticky_random_byz_runs =
  QCheck.Test.make ~name:"algorithm 2: random equivocation runs safe"
    ~count:20 QCheck.int (fun seed ->
      let module Diff = Lnd_parallel.Diff in
      let module Sched = Lnd_runtime.Sched in
      let module Policy = Lnd_runtime.Policy in
      let module S = Spec.Sticky_spec in
      let n = 4 and f = 1 in
      let q = Quorum.make_relaxed ~n ~f in
      let t =
        Diff.session (Policy.random ~seed)
          (Diff.sticky_plan q ~byzantine:[ 0 ]
             ~scripts:
               [
                 ( 0,
                   Lnd_byz.Byz_script.Equivocating_writer
                     { va = "a"; vb = "b"; flip_after = (abs seed mod 4) + 1 }
                 );
               ])
      in
      for pid = 1 to n - 1 do
        t.client ~pid ~name:(Printf.sprintf "r%d" pid) [ Diff.read_sticky q ~pid ]
      done;
      match Sched.run ~max_steps:2_000_000 t.sched with
      | Sched.Quiescent ->
          let h = t.history () in
          let non_bot =
            List.filter_map
              (fun (e : (S.op, S.res) History.entry) ->
                match e.ret with Some (S.Val v, _) -> v | _ -> None)
              (History.entries h)
          in
          let agree =
            match non_bot with
            | [] -> true
            | v :: rest -> List.for_all (Value.equal v) rest
          in
          agree
          && Lnd_history.Byzlin.sticky ~writer:0
               ~correct:(fun pid -> t.correct.(pid))
               h
      | _ -> false)

(* Test-or-set built from either register: TEST results are monotone in
   every random run (once 1, always 1 for later tests). *)
let prop_testorset_monotone =
  QCheck.Test.make ~name:"test-or-set: monotone in random runs" ~count:16
    QCheck.(pair int bool)
    (fun (seed, use_sticky) ->
      let module Diff = Lnd_parallel.Diff in
      let module Sched = Lnd_runtime.Sched in
      let module Policy = Lnd_runtime.Policy in
      let module T = Spec.Testorset_spec in
      let n = 4 and f = 1 in
      let q = Quorum.make_relaxed ~n ~f in
      (* SET, then two TESTs by every tester; the history, or None if
         the run did not quiesce *)
      let run plan set test =
        let t = Diff.session (Policy.random ~seed) plan in
        t.client ~pid:0 ~name:"set" [ set ];
        for pid = 1 to n - 1 do
          t.client ~pid ~name:(Printf.sprintf "t%d" pid) [ test ~pid; test ~pid ]
        done;
        match Sched.run ~max_steps:2_000_000 t.sched with
        | Sched.Quiescent -> Some (t.history ())
        | _ -> None
      in
      let plan p = p q ~byzantine:[] ~scripts:[] in
      match
        if use_sticky then
          run (plan Diff.testorset_sticky_plan) (Diff.set_sticky q)
            (Diff.test_sticky q)
        else
          run
            (plan Diff.testorset_verifiable_plan)
            Diff.set_verifiable (Diff.test_verifiable q)
      with
      | Some h ->
          let bits pid =
            List.filter_map
              (fun (e : (T.op, T.res) History.entry) ->
                match e.ret with
                | Some (T.Bit b, _) when e.pid = pid -> Some b
                | _ -> None)
              (History.entries h)
          in
          List.for_all (fun pid -> bits pid <> [ 1; 0 ]) [ 1; 2; 3 ]
          && Lnd_history.Byzlin.testorset ~setter:0 ~correct:(fun _ -> true) h
      | None -> false)

(* Agreement between the two checking layers on random small sticky
   histories: whenever the full Byzantine-linearizability search accepts
   a history, the (necessary-condition) uniqueness monitor accepts it
   too. *)
let prop_byzlin_implies_monitors =
  let module S = Spec.Sticky_spec in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5)
        (triple (int_range 1 3) (oneofl [ None; Some "a"; Some "b" ])
           (int_range 1 8)))
  in
  QCheck.Test.make ~name:"byzlin acceptance implies monitor acceptance"
    ~count:120 (QCheck.make gen) (fun specs ->
      (* build a history of completed reads at staggered intervals *)
      let t = ref 0 in
      let entries =
        List.map
          (fun (pid, res, gap) ->
            let inv = !t + 1 in
            let rt = inv + gap in
            t := rt;
            { History.pid; op = S.Read; inv; ret = Some (S.Val res, rt) })
          specs
      in
      let h : (S.op, S.res) History.t = { History.entries } in
      let byzlin_ok =
        Lnd_history.Byzlin.sticky ~writer:0 ~correct:(fun pid -> pid <> 0) h
      in
      let monitor_ok =
        Lnd_history.Monitors.uniqueness ~correct:(fun pid -> pid <> 0) h = []
      in
      (* byzlin pass -> monitors pass (monitors are necessary conditions) *)
      (not byzlin_ok) || monitor_ok)

(* The sequential-read restriction: on histories whose reads are pairwise
   non-overlapping, byzlin and the uniqueness monitor agree exactly. *)
let prop_byzlin_monitor_equiv_sequential =
  let module S = Spec.Sticky_spec in
  let gen =
    QCheck.Gen.(list_size (int_range 1 5) (oneofl [ None; Some "a"; Some "b" ]))
  in
  QCheck.Test.make
    ~name:"byzlin = uniqueness monitor on sequential sticky reads"
    ~count:120 (QCheck.make gen) (fun results ->
      let entries =
        List.mapi
          (fun i res ->
            { History.pid = 1 + (i mod 3); op = S.Read;
              inv = (10 * i) + 1; ret = Some (S.Val res, (10 * i) + 2) })
          results
      in
      let h : (S.op, S.res) History.t = { History.entries } in
      let byzlin_ok =
        Lnd_history.Byzlin.sticky ~writer:0 ~correct:(fun pid -> pid <> 0) h
      in
      let monitor_ok =
        Lnd_history.Monitors.uniqueness ~correct:(fun pid -> pid <> 0) h = []
      in
      byzlin_ok = monitor_ok)

(* Same agreement property for verifiable histories: byzlin acceptance
   implies relay-monitor acceptance. *)
let prop_verifiable_byzlin_implies_relay =
  let module V = Spec.Verifiable_spec in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5)
        (triple (int_range 1 3)
           (pair (oneofl [ "a"; "b" ]) bool)
           (int_range 1 8)))
  in
  QCheck.Test.make
    ~name:"verifiable: byzlin acceptance implies relay acceptance" ~count:120
    (QCheck.make gen) (fun specs ->
      let t = ref 0 in
      let entries =
        List.map
          (fun (pid, (v, result), gap) ->
            let inv = !t + 1 in
            let rt = inv + gap in
            t := rt;
            { History.pid; op = V.Verify v; inv;
              ret = Some (V.Verified result, rt) })
          specs
      in
      let h : (V.op, V.res) History.t = { History.entries } in
      let byzlin_ok =
        Lnd_history.Byzlin.verifiable ~writer:0
          ~correct:(fun pid -> pid <> 0)
          h
      in
      let monitor_ok =
        Lnd_history.Monitors.relay ~correct:(fun pid -> pid <> 0) h = []
      in
      (not byzlin_ok) || monitor_ok)

(* ---------------- observability: trace-derived metrics ---------------- *)

(* A seeded chaos sweep with the recording sink installed: the trace must
   stay well-nested (every opened span closes), its derived metrics must
   obey the structural invariants of the retransmission and durability
   layers, and — the sink being passive — the traced run must report
   exactly what the untraced baseline run reports. *)
let prop_trace_metrics_invariants =
  let module Chaos = Lnd_fuzz.Chaos in
  let module Trace = Lnd_obs.Trace in
  let module Metrics = Lnd_obs.Metrics in
  QCheck.Test.make ~name:"observability: metrics invariants over seeded chaos"
    ~count:60
    QCheck.(pair small_nat bool)
    (fun (seed, crash) ->
      let scenario =
        if crash then Chaos.generate_crash seed else Chaos.generate seed
      in
      let baseline = Chaos.run scenario in
      let outcome, tr = Chaos.run_traced scenario in
      let evs = Trace.events tr in
      (match Trace.check_nesting evs with
      | Some v -> QCheck.Test.fail_reportf "seed %d: bad nesting: %s" seed v
      | None -> ());
      let m = Metrics.of_events evs in
      let c = Metrics.counter m in
      (* rlink can only suppress copies the sender (re)sent or the
         network duplicated *)
      if c "rlink.redundant" > c "rlink.retransmissions" + c "net.dup" then
        QCheck.Test.fail_reportf "seed %d: redundant %d > retrans %d + dup %d"
          seed (c "rlink.redundant")
          (c "rlink.retransmissions")
          (c "net.dup");
      (* volatile scenarios touch no disk at all *)
      if
        scenario.Chaos.crashes = []
        && (c "wal.appends" <> 0 || c "wal.fsyncs" <> 0
           || c "disk.crashes" <> 0)
      then
        QCheck.Test.fail_reportf "seed %d: volatile run journalled" seed;
      match (baseline, outcome) with
      | Error a, Error b when a = b -> true
      | Ok b, Ok r ->
          (* passive sink: identical report either way *)
          if
            b.Chaos.steps <> r.Chaos.steps
            || b.Chaos.data_sent <> r.Chaos.data_sent
            || b.Chaos.retransmissions <> r.Chaos.retransmissions
            || b.Chaos.redundant <> r.Chaos.redundant
            || b.Chaos.fsyncs <> r.Chaos.fsyncs
            || b.Chaos.net_stats <> r.Chaos.net_stats
          then
            QCheck.Test.fail_reportf
              "seed %d: traced run diverged from the untraced baseline" seed;
          (* event-derived fault counters = the fault layer's own *)
          let st = r.Chaos.net_stats in
          if
            c "net.drop" <> st.Lnd_msgpass.Faultnet.dropped
            || c "net.cut" <> st.Lnd_msgpass.Faultnet.cut
            || c "net.dup" <> st.Lnd_msgpass.Faultnet.duplicated
            || c "net.delay" <> st.Lnd_msgpass.Faultnet.delayed
          then
            QCheck.Test.fail_reportf
              "seed %d: event-derived net counters disagree with Faultnet"
              seed;
          (* rlink counters: exact for uncrashed runs (crash-restart
             replaces the victim's links, so the report only sums the
             survivors) *)
          if
            scenario.Chaos.crashes = []
            && (c "rlink.data_sent" <> r.Chaos.data_sent
               || c "rlink.retransmissions" <> r.Chaos.retransmissions
               || c "rlink.redundant" <> r.Chaos.redundant)
          then
            QCheck.Test.fail_reportf
              "seed %d: event-derived rlink counters disagree with report"
              seed;
          (* crash-restart scenarios must actually journal and recover *)
          if
            scenario.Chaos.crashes <> []
            && (c "wal.fsyncs" = 0 || c "wal.recovers" = 0
               || c "disk.crashes" = 0)
          then
            QCheck.Test.fail_reportf "seed %d: crash run left no WAL trail"
              seed;
          true
      | _ ->
          QCheck.Test.fail_reportf
            "seed %d: traced and untraced runs disagree on the verdict" seed)

let tests =
  List.map to_alcotest
    [
      prop_rng_bounds;
      prop_rng_deterministic;
      prop_univ_roundtrip;
      prop_univ_vset_roundtrip;
      prop_sequential_histories_linearizable;
      prop_sticky_bot_after_value_rejected;
      prop_verifiable_random_runs;
      prop_sticky_random_byz_runs;
      prop_testorset_monotone;
      prop_byzlin_implies_monitors;
      prop_byzlin_monitor_equiv_sequential;
      prop_verifiable_byzlin_implies_relay;
      prop_trace_metrics_invariants;
    ]
