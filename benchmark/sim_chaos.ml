(* sim-chaos-regemu: one unit is one Chaos.run of a §9 register-emulation
   scenario — Regemu over Rlink over Faultnet, with Wal and Disk under
   the crash-restart victims. Single-threaded; never calls Machine or the
   domains backend. *)

module Chaos = Lnd_fuzz.Chaos
module Faultnet = Lnd_msgpass.Faultnet
module Trace = Lnd_obs.Trace
module Metrics = Lnd_obs.Metrics

(* Scenario costs span two orders of magnitude, so the rotation is long
   enough that its mean and tail hardly depend on which scenarios the
   seed draws. *)
let per_family = 1000

(* Two kinds of crash-restart scenario are left out:
   - those whose Byzantine processes merely crash: their recovery often
     waits out a 400k-step stall, 50x a typical scenario, and how many
     of them a seed draws would swing the rate by tens of percent;
   - a forging Byzantine process next to crash-restarts of two different
     replicas: 3 of crash seeds 0-3000 are of this kind and stall for
     good, so a seed could draw a failing unit. *)
let kept_crash (s : Chaos.scenario) =
  let victims =
    List.sort_uniq compare (List.map (fun c -> c.Chaos.victim) s.Chaos.crashes)
  in
  match s.Chaos.adversary with
  | Chaos.Crash -> false
  | Chaos.Forger -> List.length victims < 2
  | Chaos.No_adversary | Chaos.Equivocator -> true

(* The rotation alternates two families drawn from the seed: link-fault
   scenarios (Chaos.generate seeds from seed * 100000 on whose protocol
   is the register emulation) and kept crash-restart scenarios
   (Chaos.generate_crash, seed * 100000 + 1 on). *)
let rotation ~seed : Chaos.scenario array =
  let rec take gen keep s k acc =
    if k = 0 then List.rev acc
    else
      let sc = gen s in
      if keep sc then take gen keep (s + 1) (k - 1) (sc :: acc)
      else take gen keep (s + 1) k acc
  in
  let base = seed * 100_000 in
  let is_register (s : Chaos.scenario) = s.Chaos.protocol = Chaos.Register in
  let link = take Chaos.generate is_register base per_family [] in
  let crash = take Chaos.generate_crash kept_crash (base + 1) per_family [] in
  Array.of_list (List.concat (List.map2 (fun a b -> [ a; b ]) link crash))

let describe (s : Chaos.scenario) = Format.asprintf "%a" Chaos.pp_scenario s

let scenario (ctx : Harness.ctx) rot k =
  let s = rot.(k mod Array.length rot) in
  Harness.attempt ctx 1;
  let t0 = Stats.now_ns () in
  let out = Chaos.run s in
  let ms = Stats.ms_between t0 (Stats.now_ns ()) in
  match out with
  | Ok r -> Some (r, ms)
  | Error m ->
      Harness.fail ctx ~unit_index:k ~items:1 "%s: %s" (describe s) m;
      None

(* The first units of the rotation again, under a recording trace that
   keeps every event. The simulator is deterministic, so their reports
   equal the untraced ones and every count below is exact. *)
let traced_pass (ctx : Harness.ctx) rot ~untraced_ms =
  let units = Harness.traced_units ctx ~full:20 in
  let traced_ms = ref 0. and untraced = ref 0. in
  let ok = ref 0 in
  let steps = ref 0 and data = ref 0 and retrans = ref 0 and redundant = ref 0 in
  let sent = ref 0 and fsyncs = ref 0 and events = ref 0 and wal_bytes = ref 0 in
  for k = 0 to units - 1 do
    let s = rot.(k mod Array.length rot) in
    Harness.attempt ctx 1;
    let t0 = Stats.now_ns () in
    let out, tr = Chaos.run_traced s in
    let t1 = Stats.now_ns () in
    let m = Metrics.of_events ~dropped:(Trace.dropped tr) (Trace.events tr) in
    let t2 = Stats.now_ns () in
    Spans.record ctx.spans ~unit_index:k ~name:"Chaos.run_traced" ~start:t0
      ~stop:t1 ();
    Spans.record ctx.spans ~unit_index:k ~name:"Metrics.of_events" ~start:t1
      ~stop:t2 ();
    match out with
    | Error e -> Harness.fail ctx ~unit_index:k ~items:1 "traced %s: %s" (describe s) e
    | Ok _ when Trace.dropped tr > 0 ->
        Harness.fail ctx ~unit_index:k ~items:1 "traced %s: %d events dropped"
          (describe s) (Trace.dropped tr)
    | Ok r ->
        incr ok;
        (match untraced_ms.(k) with
        | Some ms ->
            traced_ms := !traced_ms +. Stats.ms_between t0 t1;
            untraced := !untraced +. ms
        | None -> ());
        steps := !steps + r.Chaos.steps;
        data := !data + r.Chaos.data_sent;
        retrans := !retrans + r.Chaos.retransmissions;
        redundant := !redundant + r.Chaos.redundant;
        sent := !sent + r.Chaos.net_stats.Faultnet.sent;
        fsyncs := !fsyncs + r.Chaos.fsyncs;
        events := !events + Trace.size tr;
        wal_bytes := !wal_bytes + Metrics.counter m "wal.bytes"
  done;
  let per x = Stats.ratio (float_of_int !x) (float_of_int !ok) in
  [
    ("Sched.steps_per_scenario", per steps);
    ("Rlink.data_per_scenario", per data);
    ("Rlink.retrans_per_scenario", per retrans);
    ("Rlink.redundant_per_scenario", per redundant);
    ("Faultnet.sent_per_scenario", per sent);
    ("Wal.fsyncs_per_scenario", per fsyncs);
    ("Obs.events_per_scenario", per events);
    ("Wal.bytes_per_scenario", per wal_bytes);
    ("Obs.trace_overhead", Stats.ratio !traced_ms !untraced);
  ]

let run (ctx : Harness.ctx) : Harness.result =
  let setup_s, rot =
    Harness.setup ctx (fun () ->
        let rot = rotation ~seed:ctx.seed in
        for k = 0 to Harness.warmup ctx ~full:100 - 1 do
          ignore (scenario ctx rot k)
        done;
        rot)
  in
  let w = Harness.window () in
  (* untraced times of the scenarios the traced pass repeats *)
  let untraced_ms = Array.make (Harness.traced_units ctx ~full:20) None in
  let steps = ref 0 in
  let words0 = Harness.allocated_words () in
  let window_s =
    Harness.closed_loop ctx (fun k ->
        match scenario ctx rot k with
        | Some (r, ms) ->
            Harness.record w ~ms ~items:1;
            steps := !steps + r.Chaos.steps;
            if k < Array.length untraced_ms then untraced_ms.(k) <- Some ms
        | None -> ())
  in
  let words = Harness.allocated_words () -. words0 in
  let heap = Harness.heap_peak_mb () in
  let layers =
    if not ctx.traced then []
    else
      ("Sched.words_per_step", Stats.ratio words (float_of_int !steps))
      :: ("Gc.heap_peak_mb", heap)
      :: traced_pass ctx rot ~untraced_ms
  in
  Harness.result w ~setup_s ~window_s ~layers

let replay (ctx : Harness.ctx) k =
  let rot = rotation ~seed:ctx.seed in
  Printf.printf "scenario %d: %s\n" k (describe rot.(k mod Array.length rot));
  match scenario ctx rot k with
  | Some (r, ms) -> Printf.printf "ok: %d steps, %.3f ms\n" r.Chaos.steps ms
  | None -> ()
