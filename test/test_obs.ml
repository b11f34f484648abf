(* Observability layer (lib/obs): the seam itself, trace export,
   golden-trace regression against committed fixtures, and the
   trace-driven checker path — a recorded event stream must reproduce
   the verdicts of the direct-history checkers.

   To regenerate a golden fixture after an intentional trace change:
     dune exec bin/lnd_cli.exe -- trace --seed 1 \
       --out test/fixtures/traces/chaos_seed1_register.jsonl
   (seed 4 for the broadcast fixture; --seed 4 --crash for recovery). *)

module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Metrics = Lnd_obs.Metrics
module Chaos = Lnd_fuzz.Chaos
module Replay = Lnd_history.Trace_replay
module Inv = Lnd_history.Trace_invariants
module Byzlin = Lnd_history.Byzlin
module History = Lnd_history.History
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Space = Lnd_shm.Space

(* ---- the seam ---- *)

let test_null_sink () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  (* All entry points are no-ops when no sink is installed. *)
  Obs.emit (Obs.Sched_switch { fid = 0; fname = "f" });
  let id = Obs.span_open ~name:"WRITE" ~arg:"v" () in
  Alcotest.(check int) "disabled span id is 0" 0 id;
  Obs.span_close ~name:"WRITE" ~result:"done" id

let with_trace ?keep f =
  let tr = Trace.create ?keep () in
  Obs.install (Trace.sink tr);
  Fun.protect ~finally:(fun () -> Obs.uninstall ()) (fun () -> f tr);
  Trace.finish tr;
  tr

let test_span_nesting () =
  let tr =
    with_trace (fun _ ->
        let a = Obs.span_open ~pid:1 ~name:"READ" () in
        let b = Obs.span_open ~pid:1 ~name:"HELP" () in
        Obs.span_close ~pid:1 ~name:"HELP" ~result:"done" b;
        Obs.span_close ~pid:1 ~name:"READ" ~result:"v:x" a)
  in
  Alcotest.(check (option string)) "well nested" None
    (Trace.check_nesting (Trace.events tr))

let test_finish_closes_dangling () =
  let tr =
    with_trace (fun _ ->
        let a = Obs.span_open ~pid:1 ~name:"WRITE" () in
        let _b = Obs.span_open ~pid:2 ~name:"HELP" () in
        (* [a] and [b] both left open, as if their fibers were killed. *)
        ignore a)
  in
  Alcotest.(check (option string)) "finish repairs nesting" None
    (Trace.check_nesting (Trace.events tr));
  let aborted =
    List.length
      (List.filter
         (fun (e : Obs.event) ->
           match e.kind with
           | Obs.Span_close { aborted = true; _ } -> true
           | _ -> false)
         (Trace.events tr))
  in
  Alcotest.(check int) "both spans force-closed" 2 aborted

let test_nesting_detects_violations () =
  (* A close whose parent closed first must be flagged. *)
  let ev at span kind = { Obs.at; pid = 0; span; kind } in
  let bad =
    [
      ev 0 1 (Obs.Span_open { name = "A"; arg = None; parent = 0 });
      ev 1 2 (Obs.Span_open { name = "B"; arg = None; parent = 1 });
      ev 2 1 (Obs.Span_close { name = "A"; result = None; aborted = false });
      ev 3 2 (Obs.Span_close { name = "B"; result = None; aborted = false });
    ]
  in
  Alcotest.(check bool) "parent-before-child flagged" true
    (Trace.check_nesting bad <> None)

let test_json_escaping () =
  let e =
    {
      Obs.at = 3;
      pid = 1;
      span = 2;
      kind = Obs.Span_open { name = "WRITE"; arg = Some "a\"b\\c\nd"; parent = 0 };
    }
  in
  Alcotest.(check string) "escaped"
    {|{"at":3,"pid":1,"span":2,"ev":"span_open","name":"WRITE","parent":0,"arg":"a\"b\\c\nd"}|}
    (Trace.event_to_json e)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_diff () =
  Alcotest.(check (option string)) "identical" None
    (Trace.diff ~expected:"a\nb\n" ~actual:"a\nb\n");
  (match Trace.diff ~expected:"a\nb\n" ~actual:"a\nc\n" with
  | None -> Alcotest.fail "divergence missed"
  | Some d ->
      Alcotest.(check bool) "reports first divergent event" true
        (contains ~sub:"1" d && contains ~sub:"c" d));
  Alcotest.(check bool) "truncation reported" true
    (Trace.diff ~expected:"a\nb\n" ~actual:"a\n" <> None)

let test_diff_edge_cases () =
  (* two empty traces agree; an empty side diverges at line 0 *)
  Alcotest.(check (option string)) "both empty" None
    (Trace.diff ~expected:"" ~actual:"");
  Alcotest.(check bool) "unexpected first event" true
    (Trace.diff ~expected:"" ~actual:"a\n" <> None);
  Alcotest.(check bool) "expected event missing" true
    (Trace.diff ~expected:"a\n" ~actual:"" <> None);
  (* byte-unequal but event-equal traces are still flagged, with a
     message blaming layout rather than a phantom divergent event *)
  Alcotest.(check bool) "layout-only difference named as such" true
    (match Trace.diff ~expected:"a\nb\n" ~actual:"a\nb" with
    | Some msg -> contains ~sub:"whitespace" msg
    | None -> false)

(* A dangling span closed by [finish] is exported like any other close,
   flagged aborted, after every live event — so evidence indices into
   the live stream stay valid line numbers. *)
let test_aborted_close_exported () =
  let tr =
    with_trace (fun _ ->
        let a = Obs.span_open ~pid:1 ~name:"WRITE" ~arg:"v" () in
        ignore a;
        Obs.emit ~pid:2 (Obs.Link_incarnation { epoch = 0 }))
  in
  let jsonl = Trace.to_jsonl tr in
  Jsonchk.check_jsonl ~what:"jsonl with aborted close" jsonl;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "open + incarnation + synthetic close" 3
    (List.length lines);
  let last = List.nth lines 2 in
  Alcotest.(check bool) "synthetic close is last and aborted" true
    (contains ~sub:"aborted" last && contains ~sub:"WRITE" last);
  Alcotest.(check (option string)) "stream stays well-nested" None
    (Trace.check_nesting (Trace.events tr))

(* ---- exports are real JSON ---- *)

let test_exports_parse () =
  let _, tr =
    Chaos.run_traced ~keep:Chaos.compact_keep (Chaos.generate_crash 4)
  in
  Jsonchk.check_jsonl ~what:"JSONL export" (Trace.to_jsonl tr);
  Jsonchk.check ~what:"Chrome trace export" (Trace.to_chrome tr);
  (* escaping-hostile payloads survive both exporters *)
  let tr =
    with_trace (fun _ ->
        let s =
          Obs.span_open ~pid:0 ~name:"WRITE" ~arg:"quote\" slash\\ nl\n" ()
        in
        Obs.span_close ~pid:0 ~result:"ctrl\x01 done" ~name:"WRITE" s)
  in
  Jsonchk.check_jsonl ~what:"hostile JSONL" (Trace.to_jsonl tr);
  Jsonchk.check ~what:"hostile Chrome trace" (Trace.to_chrome tr)

(* ---- metrics registry ---- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.incr ~by:4 m "x";
  Metrics.set_gauge m "g" 7;
  List.iter (Metrics.observe m "h") [ 5; 1; 9; 3; 7 ];
  Alcotest.(check int) "counter" 5 (Metrics.counter m "x");
  Alcotest.(check (option int)) "gauge" (Some 7) (Metrics.gauge m "g");
  (match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 5 h.Metrics.count;
      Alcotest.(check int) "sum" 25 h.Metrics.sum;
      Alcotest.(check int) "p50 nearest-rank" 5 h.Metrics.p50;
      Alcotest.(check int) "p95 nearest-rank" 9 h.Metrics.p95;
      Alcotest.(check int) "p99 nearest-rank" 9 h.Metrics.p99);
  Alcotest.(check string) "deterministic dump"
    "counter x 5\ngauge g 7\nhist h count=5 sum=25 min=1 max=9 p50=5 p95=9 \
     p99=9\n"
    (Metrics.dump m);
  Jsonchk.check ~what:"metrics JSON snapshot" (Metrics.to_json m);
  Alcotest.(check string) "deterministic JSON snapshot"
    "{\"counters\":{\"x\":5},\"gauges\":{\"g\":7},\"hists\":{\"h\":{\"count\":5,\
     \"sum\":25,\"min\":1,\"max\":9,\"p50\":5,\"p95\":9,\"p99\":9}}}"
    (Metrics.to_json m);
  (* arena-overflow reconciliation: a lossy trace surfaces its drop
     count; a complete one adds no key *)
  Alcotest.(check int) "trace.dropped surfaced" 3
    (Metrics.counter (Metrics.of_events ~dropped:3 []) "trace.dropped");
  Alcotest.(check int) "no dropped key when complete" 0
    (Metrics.counter (Metrics.of_events []) "trace.dropped")

(* ---- golden-trace regression ---- *)

let fixture name = Filename.concat "fixtures/traces" name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden ~name ~scenario () =
  let _, tr = Chaos.run_traced ~keep:Chaos.compact_keep scenario in
  let actual = Trace.to_jsonl tr in
  (* Determinism: the same seed replays to the same byte stream. *)
  let _, tr2 = Chaos.run_traced ~keep:Chaos.compact_keep scenario in
  (match Trace.diff ~expected:actual ~actual:(Trace.to_jsonl tr2) with
  | None -> ()
  | Some d -> Alcotest.failf "same seed, different trace:\n%s" d);
  (* Regression: byte-identical to the committed fixture. *)
  let expected = read_file (fixture name) in
  match Trace.diff ~expected ~actual with
  | None -> ()
  | Some d ->
      Alcotest.failf
        "trace for %s diverged from fixture (regenerate with lnd_cli trace \
         if intentional):\n\
         %s"
        name d

let golden_register = golden ~name:"chaos_seed1_register.jsonl"
let golden_broadcast = golden ~name:"chaos_seed4_broadcast.jsonl"
let golden_crash = golden ~name:"chaos_crash4_recovery.jsonl"

(* The golden traces stay well-nested and survive the nesting checker
   even with per-step events filtered out. *)
let test_golden_nesting () =
  List.iter
    (fun scenario ->
      let _, tr = Chaos.run_traced ~keep:Chaos.compact_keep scenario in
      Alcotest.(check (option string)) "well nested" None
        (Trace.check_nesting (Trace.events tr)))
    [ Chaos.generate 1; Chaos.generate 4; Chaos.generate_crash 4 ]

(* ---- trace-driven checkers ---- *)

(* Run an adversarial verifiable-register execution with BOTH recording
   paths active — the direct in-memory history + Space access ring, and
   the Obs trace — then check that the trace-reconstructed history and
   access list drive Byzlin / Trace_invariants to the same verdicts. *)
let test_trace_driven_verifiable () =
  let module Sys = Lnd_verifiable.System in
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed:11) ~n ~f ~byzantine:[ 3 ] () in
  Space.set_trace t.space ~capacity:300_000;
  let tr = Trace.create () in
  Obs.install (Trace.sink tr);
  Fun.protect
    ~finally:(fun () -> Obs.uninstall ())
    (fun () ->
      ignore
        (Lnd_byz.Byz_verifiable.spawn t.sched t.regs ~pid:3
           (Lnd_byz.Byz_script.Flipflop "v"));
      ignore
        (Sys.client t ~pid:0 ~name:"w" (fun () ->
             Sys.op_write t "v";
             ignore (Sys.op_sign t "v")));
      for pid = 1 to 2 do
        ignore
          (Sys.client t ~pid
             ~name:(Printf.sprintf "r%d" pid)
             (fun () ->
               ignore (Sys.op_read t ~pid);
               ignore (Sys.op_verify t ~pid "v")))
      done;
      match Sys.run ~max_steps:2_000_000 t with
      | Sched.Quiescent -> ()
      | _ -> Alcotest.fail "stuck");
  Trace.finish tr;
  let evs = Trace.events tr in
  let correct pid = t.correct.(pid) in
  (* 1. the reconstructed history matches the directly recorded one *)
  let direct = History.entries t.history in
  let replayed = History.entries (Replay.verifiable_history evs) in
  Alcotest.(check int) "same operation count" (List.length direct)
    (List.length replayed);
  List.iter2
    (fun (d : _ History.entry) (r : _ History.entry) ->
      Alcotest.(check bool) "same op" true (d.History.op = r.History.op);
      Alcotest.(check int) "same pid" d.History.pid r.History.pid;
      Alcotest.(check bool) "same result" true
        (Option.map fst d.History.ret = Option.map fst r.History.ret))
    direct replayed;
  (* 2. Byzlin reaches the same verdict through either path *)
  let v_direct = Sys.byz_linearizable t in
  let v_trace =
    Byzlin.verifiable ~writer:0 ~correct (Replay.verifiable_history evs)
  in
  Alcotest.(check bool) "direct verdict" true v_direct;
  Alcotest.(check bool) "trace-driven verdict agrees" v_direct v_trace;
  (* 3. the trace's access stream equals the Space ring, and the
        appendix invariants agree on it *)
  let ring = Space.trace t.space in
  let mirrored = Replay.accesses evs in
  Alcotest.(check int) "same access count" (List.length ring)
    (List.length mirrored);
  List.iter2
    (fun (a : Space.access) (b : Space.access) ->
      Alcotest.(check int) "seq" a.Space.acc_seq b.Space.acc_seq;
      Alcotest.(check int) "pid" a.Space.acc_pid b.Space.acc_pid;
      Alcotest.(check string) "reg" a.Space.acc_reg b.Space.acc_reg;
      Alcotest.(check bool) "kind" true (a.Space.acc_kind = b.Space.acc_kind))
    ring mirrored;
  Alcotest.(check int) "invariants: direct" 0
    (List.length (Inv.check_verifiable ~correct ring));
  Alcotest.(check int) "invariants: trace-driven" 0
    (List.length (Inv.check_verifiable ~correct mirrored))

(* Same double-path check for the sticky register under an equivocating
   Byzantine writer. *)
let test_trace_driven_sticky () =
  let module Sys = Lnd_sticky.System in
  let n = 4 and f = 1 in
  let t = Sys.make ~policy:(Policy.random ~seed:5) ~n ~f ~byzantine:[ 0 ] () in
  Space.set_trace t.space ~capacity:300_000;
  let tr = Trace.create () in
  Obs.install (Trace.sink tr);
  Fun.protect
    ~finally:(fun () -> Obs.uninstall ())
    (fun () ->
      ignore
        (Lnd_byz.Byz_sticky.spawn t.sched t.regs ~pid:0
           (Lnd_byz.Byz_script.Equivocating_writer
              { va = "a"; vb = "b"; flip_after = 2 }));
      for pid = 1 to 3 do
        ignore
          (Sys.client t ~pid
             ~name:(Printf.sprintf "r%d" pid)
             (fun () -> ignore (Sys.op_read t ~pid)))
      done;
      match Sys.run ~max_steps:2_000_000 t with
      | Sched.Quiescent -> ()
      | _ -> Alcotest.fail "stuck");
  Trace.finish tr;
  let evs = Trace.events tr in
  let correct pid = t.correct.(pid) in
  let v_direct = Sys.byz_linearizable t in
  let v_trace = Byzlin.sticky ~writer:0 ~correct (Replay.sticky_history evs) in
  Alcotest.(check bool) "direct verdict" true v_direct;
  Alcotest.(check bool) "trace-driven verdict agrees" v_direct v_trace;
  Alcotest.(check int) "invariants: trace-driven" 0
    (List.length (Inv.check_sticky ~correct (Replay.accesses evs)))

(* ---- trace-derived metrics agree with the harness's own counters ---- *)

let test_metrics_match_report () =
  (* Non-crash scenario: rlinks live for the whole run, so the report's
     link counters must equal the event-derived ones exactly. *)
  let scenario = Chaos.generate 1 in
  let outcome, tr = Chaos.run_traced scenario in
  match outcome with
  | Error msg -> Alcotest.failf "scenario failed: %s" msg
  | Ok r ->
      let m = Metrics.of_events (Trace.events tr) in
      Alcotest.(check int) "data_sent" r.Chaos.data_sent
        (Metrics.counter m "rlink.data_sent");
      Alcotest.(check int) "retransmissions" r.Chaos.retransmissions
        (Metrics.counter m "rlink.retransmissions");
      Alcotest.(check int) "redundant" r.Chaos.redundant
        (Metrics.counter m "rlink.redundant");
      Alcotest.(check int) "fsyncs" r.Chaos.fsyncs
        (Metrics.counter m "wal.fsyncs");
      Alcotest.(check int) "volatile scenario journals nothing" 0
        (Metrics.counter m "wal.fsyncs")

let tests =
  [
    Alcotest.test_case "null sink: disabled and free" `Quick test_null_sink;
    Alcotest.test_case "spans nest and close" `Quick test_span_nesting;
    Alcotest.test_case "finish closes dangling spans as aborted" `Quick
      test_finish_closes_dangling;
    Alcotest.test_case "nesting checker flags violations" `Quick
      test_nesting_detects_violations;
    Alcotest.test_case "JSONL escaping is exact" `Quick test_json_escaping;
    Alcotest.test_case "trace diff pinpoints divergence" `Quick test_diff;
    Alcotest.test_case "trace diff edge cases" `Quick test_diff_edge_cases;
    Alcotest.test_case "aborted close exported after live events" `Quick
      test_aborted_close_exported;
    Alcotest.test_case "JSONL and Chrome exports parse as JSON" `Quick
      test_exports_parse;
    Alcotest.test_case "metrics registry: deterministic dump" `Quick
      test_metrics_registry;
    Alcotest.test_case "golden trace: register links (seed 1)" `Quick
      (golden_register ~scenario:(Chaos.generate 1));
    Alcotest.test_case "golden trace: broadcast links (seed 4)" `Quick
      (golden_broadcast ~scenario:(Chaos.generate 4));
    Alcotest.test_case "golden trace: crash+recovery (seed 4)" `Quick
      (golden_crash ~scenario:(Chaos.generate_crash 4));
    Alcotest.test_case "golden traces stay well-nested" `Quick
      test_golden_nesting;
    Alcotest.test_case "trace-driven Byzlin + invariants: verifiable" `Quick
      test_trace_driven_verifiable;
    Alcotest.test_case "trace-driven Byzlin + invariants: sticky" `Quick
      test_trace_driven_sticky;
    Alcotest.test_case "trace-derived metrics match the chaos report" `Quick
      test_metrics_match_report;
  ]
