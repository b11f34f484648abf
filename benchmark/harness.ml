(* What every workload shares: the run context, failure accounting with
   replay lines, the closed loop, set-up timing, GC readings and seeded
   input helpers. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** length of the timed window *)
  smoke : bool;  (** one warm-up unit, one set-up, a 2-unit traced pass *)
  traced : bool;  (** run the traced pass after the window *)
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
}

(* What a workload measured: end-to-end and per-layer metric values by
   catalogue name, and how many latency samples the window took. *)
type result = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** [] unless traced *)
  samples : int;
  p99_ms : float;
      (** over the whole window; reported beside the metrics because it
          rests on a few tail inputs and does not hold steady across
          seeds *)
}

let attempt ctx items = ctx.attempted <- ctx.attempted + items

(* A failed unit counts all of its items as failed and prints how to
   re-run exactly that unit's inputs. *)
let fail ctx ~unit_index ~items fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.failed <- ctx.failed + items;
      Printf.printf
        "FAIL %s seed %d unit %d: %s\n\
        \  replay: bash benchmark/run.sh --workload %s --seed %d --replay %d\n\
         %!"
        ctx.workload ctx.seed unit_index msg ctx.workload ctx.seed unit_index)
    fmt

(* Set-up is repeated and its median reported, so that a change moving
   work into set-up shows in [setup_s]. The last repetition's value is
   the one the run uses. *)
let setup ctx f =
  let reps = if ctx.smoke then 1 else 3 in
  let times = Array.make reps 0. in
  let last = ref None in
  for i = 0 to reps - 1 do
    let t0 = Stats.now_ns () in
    last := Some (f ());
    times.(i) <- Stats.seconds_since t0
  done;
  (Stats.median times, Option.get !last)

let warmup ctx ~full = if ctx.smoke then 1 else full
let traced_units ctx ~full = if ctx.smoke then 2 else full

(* The timed window's samples: latencies (ms) of completed work — a
   session, a schedule, a scenario — and the items (client operations,
   schedules, scenarios) they completed. *)
type window = { lat : Stats.sample; mutable items : int }

let window () = { lat = Stats.sample (); items = 0 }

let record w ~ms ~items =
  Stats.add w.lat ms;
  w.items <- w.items + items

(* A closed loop from one benchmark thread — unit k+1 starts when unit k
   returns — that always runs at least one unit. Returns the window's
   actual length in seconds. *)
let closed_loop ctx (f : int -> unit) : float =
  let start = Stats.now_ns () in
  let deadline = Int64.add start (Int64.of_float (ctx.seconds *. 1e9)) in
  let rec go k =
    f k;
    if Int64.compare (Stats.now_ns ()) deadline < 0 then go (k + 1)
  in
  go 0;
  Stats.seconds_since start

(* Throughput is items completed per second of window; p90 is the
   gated tail because, over the thousands of samples a window takes, it
   holds steady across seeds where p99 does not. *)
let result w ~setup_s ~window_s ~layers : result =
  let lat = Stats.values w.lat in
  {
    e2e =
      [
        ("setup_s", setup_s);
        ("throughput", float_of_int w.items /. window_s);
        ("unit_p50_ms", Stats.median lat);
        ("unit_p90_ms", Stats.percentile 90. lat);
      ];
    layers;
    samples = Stats.count w.lat;
    p99_ms = Stats.percentile 99. lat;
  }

(* Heap words allocated so far, minor heap included; domains that have
   been joined are counted. *)
let allocated_words () = (Gc.quick_stat ()).Gc.minor_words

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* All [3^genes] Byz_script genomes over the gene alphabet {0,1,2}
   (genes are read mod 3), in an order drawn from the seed. Cycling
   through all of them keeps the adversary mix — and with it the cost
   per unit — the same for every seed; the seed only changes which
   genomes a window of a given length reaches. *)
let genomes ~seed ~salt ~genes : int list array =
  let rec pow3 k = if k = 0 then 1 else 3 * pow3 (k - 1) in
  let count = pow3 genes in
  let all =
    Array.init count (fun c ->
        List.init genes (fun i -> c / pow3 (genes - 1 - i) mod 3))
  in
  let rng = Random.State.make [| seed; salt |] in
  for i = count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = all.(i) in
    all.(i) <- all.(j);
    all.(j) <- x
  done;
  all

let genome_to_string g = String.concat "," (List.map string_of_int g)
