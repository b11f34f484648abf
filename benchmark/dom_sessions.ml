(* dom-sticky-read and dom-verify-byz: one unit is one Parallel.run
   session on the OCaml 5 domains backend — n = 4, f = 1, one domain per
   process, 8 client operations — including spawn, join and the
   backend's verdict. *)

module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace

type kind = Sticky_read | Verify_byz

let ops_per_session = 8

(* Sticky register, all honest: p0 writes twice, p1-p3 each read twice.
   The seed changes nothing. *)
let sticky_read : Diff.work =
  {
    Diff.seed = 0;
    proto = Diff.Sticky;
    n = 4;
    f = 1;
    tos_verifiable = false;
    scripts = [];
    script_value = "a";
    writes = 2;
    programs =
      [
        (1, [ Diff.I_read; Diff.I_read ]);
        (2, [ Diff.I_read; Diff.I_read ]);
        (3, [ Diff.I_read; Diff.I_read ]);
      ];
  }

(* Verifiable register with a lying p3 that claims "x": p0 does
   WRITE+SIGN twice, p1 verifies a then x, p2 reads then verifies b. *)
let verify_byz ~seed genome : Diff.work =
  {
    Diff.seed;
    proto = Diff.Verifiable;
    n = 4;
    f = 1;
    tos_verifiable = false;
    scripts = [ (3, genome) ];
    script_value = "x";
    writes = 2;
    programs =
      [
        (1, [ Diff.I_verify "a"; Diff.I_verify "x" ]);
        (2, [ Diff.I_read; Diff.I_verify "b" ]);
      ];
  }

(* Session k runs input k mod (number of inputs): the 81 four-gene
   genomes in seeded order for dom-verify-byz. *)
let inputs kind ~seed : Diff.work array =
  match kind with
  | Sticky_read -> [| sticky_read |]
  | Verify_byz ->
      Array.map (verify_byz ~seed) (Harness.genomes ~seed ~salt:1 ~genes:4)

let check ctx k (w : Diff.work) (r : Diff.run) : bool =
  match r.Diff.verdict with
  | Error m ->
      Harness.fail ctx ~unit_index:k ~items:ops_per_session "%s: %s"
        (Diff.describe w) m;
      false
  | Ok () when r.Diff.ops <> ops_per_session ->
      Harness.fail ctx ~unit_index:k ~items:ops_per_session
        "%s: %d of %d operations completed" (Diff.describe w) r.Diff.ops
        ops_per_session;
      false
  | Ok () -> true

(* One untraced session: its run and wall time in ms, or None if it
   failed. *)
let session ctx works k =
  let w = works.(k mod Array.length works) in
  Harness.attempt ctx ops_per_session;
  let t0 = Stats.now_ns () in
  let r = Parallel.run w in
  let ms = Stats.ms_between t0 (Stats.now_ns ()) in
  if check ctx k w r then Some (r, ms) else None

(* Wall-clock stamps of operation spans, taken by a sink fanned out next
   to the recording trace. Slot [pid] is written only by the domain that
   runs process [pid]; the main domain reads the slots after the join. *)
type stamps = {
  opened : (int, int64) Hashtbl.t array;
  closed : (string * int64 * int64) list array;
}

let stamp_sink n : Obs.sink * stamps =
  let st =
    { opened = Array.init n (fun _ -> Hashtbl.create 8); closed = Array.make n [] }
  in
  let is_op name = List.mem name Catalogue.op_kinds in
  let emit (e : Obs.event) =
    if e.pid >= 0 && e.pid < n then
      match e.kind with
      | Obs.Span_open { name; _ } when is_op name ->
          Hashtbl.replace st.opened.(e.pid) e.span (Stats.now_ns ())
      | Obs.Span_close { name; _ } when is_op name -> (
          let stop = Stats.now_ns () in
          match Hashtbl.find_opt st.opened.(e.pid) e.span with
          | Some start ->
              Hashtbl.remove st.opened.(e.pid) e.span;
              st.closed.(e.pid) <- (name, start, stop) :: st.closed.(e.pid)
          | None -> ())
      | _ -> ()
  in
  ({ Obs.emit }, st)

(* Register accesses of one traced session, split by the span they ran
   under: an operation span, a HELP round, or neither (idle re-polls of
   the help daemons between rounds, and the adversary). *)
type accesses = {
  mutable reads : int;
  mutable writes : int;
  mutable op_reads : int;
  mutable idle_reads : int;
  mutable help_rounds : int;
}

let count_accesses a (evs : Obs.event list) =
  let names = Hashtbl.create 64 in
  List.iter
    (fun (e : Obs.event) ->
      match e.kind with
      | Obs.Span_open { name; _ } ->
          Hashtbl.replace names e.span name;
          if name = "HELP" then a.help_rounds <- a.help_rounds + 1
      | Obs.Shm_access { access = `Write; _ } -> a.writes <- a.writes + 1
      | Obs.Shm_access { access = `Read; _ } -> (
          a.reads <- a.reads + 1;
          match Hashtbl.find_opt names e.span with
          | Some "HELP" -> ()
          | Some name when List.mem name Catalogue.op_kinds ->
              a.op_reads <- a.op_reads + 1
          | _ -> a.idle_reads <- a.idle_reads + 1)
      | _ -> ())
    evs

(* Sessions under a recording trace that keeps every event, with the
   stamp sink beside it; every arena must come back complete. *)
let traced_pass ctx works ~untraced_p50 =
  let units = Harness.traced_units ctx ~full:100 in
  let ops = ref 0 and events = ref 0 in
  let a = { reads = 0; writes = 0; op_reads = 0; idle_reads = 0; help_rounds = 0 } in
  let session_ms = Stats.sample () and verdict_ms = Stats.sample () in
  let per_kind = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace per_kind k (Stats.sample ())) Catalogue.op_kinds;
  for k = 0 to units - 1 do
    let w = works.(k mod Array.length works) in
    Harness.attempt ctx ops_per_session;
    let tr = Trace.create ~capacity:(1 lsl 20) () in
    let sink, stamps = stamp_sink w.Diff.n in
    let sid = Spans.fresh ctx.spans in
    Obs.install (Obs.fanout [ Trace.sink tr; sink ]);
    let t0 = Stats.now_ns () in
    let r = Fun.protect ~finally:Obs.uninstall (fun () -> Parallel.run w) in
    let t1 = Stats.now_ns () in
    Trace.finish tr;
    let t2 = Stats.now_ns () in
    let ti = Diff.fold_trace w tr in
    let t3 = Stats.now_ns () in
    Spans.record ctx.spans ~id:sid ~unit_index:k ~name:"Parallel.run" ~start:t0
      ~stop:t1 ();
    Spans.record ctx.spans ~unit_index:k ~name:"Diff.fold_trace" ~start:t2
      ~stop:t3 ();
    Array.iteri
      (fun pid l ->
        List.iter
          (fun (name, start, stop) ->
            Stats.add (Hashtbl.find per_kind name) (Stats.ms_between start stop);
            Spans.record ctx.spans ~parent:sid ~pid ~unit_index:k ~name ~start
              ~stop ())
          l)
      stamps.closed;
    if check ctx k w r then begin
      match (ti.Diff.t_verdict, ti.Diff.t_dropped, ti.Diff.t_nesting) with
      | Ok (), 0, None ->
          count_accesses a (Trace.events tr);
          ops := !ops + r.Diff.ops;
          events := !events + Trace.size tr;
          Stats.add session_ms (Stats.ms_between t0 t1);
          Stats.add verdict_ms (Stats.ms_between t2 t3)
      | verdict, dropped, nesting ->
          Harness.fail ctx ~unit_index:k ~items:ops_per_session
            "traced %s: trace verdict %s, %d events dropped, nesting %s"
            (Diff.describe w)
            (match verdict with Ok () -> "ok" | Error m -> m)
            dropped
            (Option.value nesting ~default:"ok")
    end
  done;
  let per_op x = Stats.ratio (float_of_int x) (float_of_int !ops) in
  let of_reads x = Stats.ratio (float_of_int x) (float_of_int a.reads) in
  let traced_p50 = Stats.median (Stats.values session_ms) in
  let share p kind =
    let ms = Stats.values (Hashtbl.find per_kind kind) in
    Stats.ratio (Stats.percentile p ms) traced_p50
  in
  [
    ("Dcell.reads_per_op", per_op a.reads);
    ("Dcell.writes_per_op", per_op a.writes);
    ("Dcell.op_read_share", of_reads a.op_reads);
    ("Domains.idle_read_share", of_reads a.idle_reads);
    ("Domains.help_rounds_per_op", per_op a.help_rounds);
    ("Obs.events_per_op", per_op !events);
    ("Obs.trace_overhead", Stats.ratio traced_p50 untraced_p50);
    ( "Diff.verdict_share",
      Stats.ratio (Stats.median (Stats.values verdict_ms)) untraced_p50 );
  ]
  @ List.concat_map
      (fun kind ->
        [
          (Printf.sprintf "Parallel.%s_p50_share" kind, share 50. kind);
          (Printf.sprintf "Parallel.%s_p90_share" kind, share 90. kind);
        ])
      Catalogue.op_kinds

(* The simulator's steps per operation on the traced pass's inputs: the
   protocol's own work, which no driver change should move. *)
let sim_steps_per_op ctx works =
  let steps = ref 0 and ops = ref 0 in
  for k = 0 to Harness.traced_units ctx ~full:100 - 1 do
    let w = works.(k mod Array.length works) in
    Harness.attempt ctx ops_per_session;
    let r = Diff.sim w in
    match r.Diff.verdict with
    | Ok () ->
        steps := !steps + r.Diff.steps;
        ops := !ops + r.Diff.ops
    | Error m ->
        Harness.fail ctx ~unit_index:k ~items:ops_per_session "sim %s: %s"
          (Diff.describe w) m
  done;
  Stats.ratio (float_of_int !steps) (float_of_int !ops)

let run kind ctx : Harness.result =
  let setup_s, works =
    Harness.setup ctx (fun () ->
        let works = inputs kind ~seed:ctx.Harness.seed in
        for k = 0 to Harness.warmup ctx ~full:25 - 1 do
          ignore (session ctx works k)
        done;
        works)
  in
  let w = Harness.window () in
  let ops = ref 0 and steps = ref 0 in
  let words0 = Harness.allocated_words () in
  let window_s =
    Harness.closed_loop ctx (fun k ->
        match session ctx works k with
        | Some (r, ms) ->
            Harness.record w ~ms ~items:r.Diff.ops;
            ops := !ops + r.Diff.ops;
            steps := !steps + r.Diff.steps
        | None -> ())
  in
  let words = Harness.allocated_words () -. words0 in
  let heap = Harness.heap_peak_mb () in
  let layers =
    if not ctx.traced then []
    else
      let steps_per_op = Stats.ratio (float_of_int !steps) (float_of_int !ops) in
      let sim = sim_steps_per_op ctx works in
      [
        ("Domains.steps_per_op", steps_per_op);
        ("Sched.sim_steps_per_op", sim);
        ("Domains.step_inflation", Stats.ratio steps_per_op sim);
        ("Machine.words_per_step", Stats.ratio words (float_of_int !steps));
        ("Gc.heap_peak_mb", heap);
      ]
      @ traced_pass ctx works ~untraced_p50:(Stats.median (Stats.values w.lat))
  in
  Harness.result w ~setup_s ~window_s ~layers

let replay kind ctx k =
  let works = inputs kind ~seed:ctx.Harness.seed in
  Printf.printf "unit %d: %s\n" k (Diff.describe works.(k mod Array.length works));
  match session ctx works k with
  | Some (r, ms) ->
      Printf.printf "ok: %d ops, %d steps, %.3f ms\n" r.Diff.ops r.Diff.steps ms
  | None -> ()
