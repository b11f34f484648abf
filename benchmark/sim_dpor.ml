(* sim-dpor: one unit is one round of Explore.dpor exhausting the three
   T15 configurations at n = 4, f = 1, preemption bound 0, max_steps 600
   — sticky, verifiable with two reads, test-or-set — with the colluder
   p3 running one Byz_script genome. Single-threaded: it drives Sched,
   Space, Machine and Byzlin on every schedule and never touches the
   domains backend. *)

module Mcheck = Lnd_fuzz.Mcheck
module Explore = Lnd_runtime.Explore

let max_steps = 600
let max_runs = 50_000
let default_genome = List.assoc 3 Mcheck.default.Mcheck.scripts

let configs genome =
  [
    ("sticky", { Mcheck.default with Mcheck.scripts = [ (3, genome) ] });
    ( "verifiable",
      {
        Mcheck.default with
        Mcheck.model = Mcheck.Verifiable;
        reads = 2;
        scripts = [ (3, genome) ];
      } );
    ( "testorset",
      { Mcheck.default with Mcheck.model = Mcheck.Testorset; scripts = [ (3, genome) ] }
    );
  ]

(* Round k runs genome k mod 27. Round 0 — also the warm-up and the
   traced round — runs Mcheck.default's reference genome (355 / 2,870 /
   355 schedules); the other 26 three-gene genomes follow in seeded
   order. Rounds take 0.5-1.8 s depending on the genome, so a window
   reaches most of the 27 and its mix barely depends on the seed. *)
let genomes ~seed =
  Array.append [| default_genome |]
    (Array.of_list
       (List.filter
          (fun g -> g <> default_genome)
          (Array.to_list (Harness.genomes ~seed ~salt:2 ~genes:3))))

(* What one or more rounds measured. [wrap] also times every make and
   check call (the traced round). *)
type probe = {
  wrap : bool;
  on_schedule : float -> unit;  (** wall time of each schedule, ms *)
  mutable make_ms : float;
  mutable check_ms : float;
  mutable accesses : int;
  mutable schedules : int;
}

let probe ?(on_schedule = ignore) ~wrap () =
  { wrap; on_schedule; make_ms = 0.; check_ms = 0.; accesses = 0; schedules = 0 }

(* A schedule lasts from its make call to the next one (or to the end of
   the exploration): building the system, running it, checking it, and
   the explorer's own backtracking. Register accesses are summed through
   the instance's Space observer, as T15 does. *)
let explore (ctx : Harness.ctx) p ~parent ~unit_index cfg =
  let i = Mcheck.instance cfg in
  let made = ref 0 in
  let prev = ref 0L in
  let mark now =
    if !prev <> 0L then p.on_schedule (Stats.ms_between !prev now);
    prev := now
  in
  let timed name f x =
    let t0 = Stats.now_ns () in
    let r = f x in
    let t1 = Stats.now_ns () in
    Spans.record ctx.spans ~parent ~unit_index ~name ~start:t0 ~stop:t1 ();
    (r, Stats.ms_between t0 t1)
  in
  let make policy =
    mark (Stats.now_ns ());
    incr made;
    p.accesses <- p.accesses + i.Mcheck.last_accesses ();
    if p.wrap then begin
      let s, ms = timed "Mcheck.make" i.Mcheck.make policy in
      p.make_ms <- p.make_ms +. ms;
      s
    end
    else i.Mcheck.make policy
  in
  let check sched =
    if p.wrap then begin
      let (), ms = timed "Mcheck.check" i.Mcheck.check sched in
      p.check_ms <- p.check_ms +. ms
    end
    else i.Mcheck.check sched
  in
  let r =
    match
      Fun.protect ~finally:i.Mcheck.teardown (fun () ->
          Explore.dpor ~make ~check ~max_steps ~max_runs ~max_preempts:0
            ~note:(Mcheck.note cfg) ())
    with
    | r -> Ok r
    | exception e -> Error e
  in
  mark (Stats.now_ns ());
  p.accesses <- p.accesses + i.Mcheck.last_accesses ();
  p.schedules <- p.schedules + !made;
  (r, !made)

(* Per-config (schedules, races, blocked) of every genome seen so far:
   a repeated genome must explore exactly the same space. *)
type seen = (int list * string, int * int * int) Hashtbl.t

let round (ctx : Harness.ctx) (seen : seen) genomes p k =
  let g = genomes.(k mod Array.length genomes) in
  let rid = Spans.fresh ctx.spans in
  let t0 = Stats.now_ns () in
  let per_config =
    List.map
      (fun (name, cfg) ->
        let r, made = explore ctx p ~parent:rid ~unit_index:k cfg in
        Harness.attempt ctx made;
        let fail fmt =
          Harness.fail ctx ~unit_index:k ~items:made
            ("%s genome [%s]: " ^^ fmt) name (Harness.genome_to_string g)
        in
        match r with
        | Error (Explore.Violation cx) ->
            fail "%s" (Format.asprintf "%a" Explore.pp_counterexample cx);
            (name, (made, 0, 0))
        | Error e ->
            fail "%s" (Printexc.to_string e);
            (name, (made, 0, 0))
        | Ok r ->
            let n = r.Explore.runs + r.Explore.pruned + r.Explore.blocked in
            let counts = (n, r.Explore.races, r.Explore.blocked) in
            (if not r.Explore.exhausted then fail "not exhausted after %d schedules" n
             else
               match Hashtbl.find_opt seen (g, name) with
               | None -> Hashtbl.replace seen (g, name) counts
               | Some ((n0, r0, _) as c0) when c0 <> counts ->
                   fail "%d schedules / %d races, earlier round %d / %d" n
                     r.Explore.races n0 r0
               | Some _ -> ());
            (name, counts))
      (configs g)
  in
  let t1 = Stats.now_ns () in
  if p.wrap then
    Spans.record ctx.spans ~id:rid ~unit_index:k ~name:"round" ~start:t0
      ~stop:t1 ();
  (per_config, Stats.ms_between t0 t1)

let run (ctx : Harness.ctx) : Harness.result =
  let seen : seen = Hashtbl.create 64 in
  let setup_s, genomes =
    Harness.setup ctx (fun () ->
        let genomes = genomes ~seed:ctx.seed in
        ignore (round ctx seen genomes (probe ~wrap:false ()) 0);
        genomes)
  in
  let w = Harness.window () in
  let p = probe ~wrap:false ~on_schedule:(fun ms -> Harness.record w ~ms ~items:1) () in
  let reference_ms = Stats.sample () in
  let words0 = Harness.allocated_words () in
  let window_s =
    Harness.closed_loop ctx (fun k ->
        let _, ms = round ctx seen genomes p k in
        if k mod Array.length genomes = 0 then Stats.add reference_ms ms)
  in
  let words = Harness.allocated_words () -. words0 in
  let heap = Harness.heap_peak_mb () in
  let layers =
    if not ctx.traced then []
    else begin
      let total = ref 0. in
      let tp = probe ~wrap:true ~on_schedule:(fun ms -> total := !total +. ms) () in
      let per_config, round_ms = round ctx seen genomes tp 0 in
      let total = !total in
      let sum f =
        float_of_int (List.fold_left (fun acc (_, c) -> acc + f c) 0 per_config)
      in
      let schedules = sum (fun (n, _, _) -> n) in
      let of_config name =
        let n, _, _ = List.assoc name per_config in
        float_of_int n
      in
      [
        ("Explore.schedules", schedules);
        ("Explore.sticky_schedules", of_config "sticky");
        ("Explore.verifiable_schedules", of_config "verifiable");
        ("Explore.testorset_schedules", of_config "testorset");
        ("Explore.races", sum (fun (_, r, _) -> r));
        ("Explore.blocked_share", Stats.ratio (sum (fun (_, _, b) -> b)) schedules);
        ("Space.accesses_per_schedule", Stats.ratio (float_of_int tp.accesses) schedules);
        ("Mcheck.make_share", Stats.ratio tp.make_ms total);
        ("Sched.exec_share", Stats.ratio (total -. tp.make_ms -. tp.check_ms) total);
        ("Mcheck.check_share", Stats.ratio tp.check_ms total);
        ("Machine.words_per_access", Stats.ratio words (float_of_int p.accesses));
        ("Gc.heap_peak_mb", heap);
        ( "Obs.trace_overhead",
          Stats.ratio round_ms (Stats.median (Stats.values reference_ms)) );
      ]
    end
  in
  Harness.result w ~setup_s ~window_s ~layers

let replay (ctx : Harness.ctx) k =
  let genomes = genomes ~seed:ctx.seed in
  Printf.printf "round %d: genome [%s]\n" k
    (Harness.genome_to_string genomes.(k mod Array.length genomes));
  let per_config, ms = round ctx (Hashtbl.create 4) genomes (probe ~wrap:false ()) k in
  List.iter
    (fun (name, (n, races, blocked)) ->
      Printf.printf "%s: %d schedules, %d races, %d blocked\n" name n races blocked)
    per_config;
  Printf.printf "%.1f ms\n" ms
