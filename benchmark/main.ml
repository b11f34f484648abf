(* The repository benchmark. See README.md in this directory.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--trace-out FILE] [--smoke] [--replay K]
     One workload in this process. The last line of output is
     {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
     with --trace 0, the per-layer metrics (from a traced pass after the
     timed window) with --trace 1. The line before it, "report {...}",
     carries everything measured. --replay K re-runs unit K only.

   main.exe run --seed N [--seconds S] [--smoke] [--spec BENCHMARK.json]
                [--trace-out DIR]
     Every workload, each in a fresh process (re-executing this binary
     with --trace 1) so heap and GC state never carry over; the last line
     is one JSON object holding all their reports. With --spec, also
     checks that every metric the spec names is emitted with its unit
     and that DPOR's reference counts hold.

   main.exe compare [--spec BENCHMARK.json] BASE NEW...
     See compare.ml.

   Exit status: 0 when every output checked out, 1 when a unit failed
   (or a comparison breached a bound), 2 on bad usage. *)

(* Each workload's name, its run and its single-unit replay. *)
let workloads =
  let dom kind = (Dom_sessions.run kind, Dom_sessions.replay kind) in
  [
    ("dom-sticky-read", dom Dom_sessions.Sticky_read);
    ("dom-verify-byz", dom Dom_sessions.Verify_byz);
    ("sim-dpor", (Sim_dpor.run, Sim_dpor.replay));
    ("sim-chaos-regemu", (Sim_chaos.run, Sim_chaos.replay));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--trace-out FILE] [--smoke] [--replay K]\n\
    \       main.exe run --seed N [--seconds S] [--smoke] [--spec FILE] \
     [--trace-out DIR]\n\
    \       main.exe compare [--spec FILE] BASE NEW...";
  exit 2

(* [--key value] pairs, bare [--smoke], and positional arguments. *)
let parse_args args =
  let rec go flags pos = function
    | "--smoke" :: rest -> go (("--smoke", "") :: flags) pos rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        go ((k, v) :: flags) pos rest
    | k :: _ when String.starts_with ~prefix:"--" k -> usage ()
    | p :: rest -> go flags (p :: pos) rest
    | [] -> (flags, List.rev pos)
  in
  go [] [] args

let flag flags k = List.assoc_opt k flags

let int_flag flags k =
  match flag flags k with
  | None -> None
  | Some v -> ( match int_of_string_opt v with Some i -> Some i | None -> usage ())

let float_flag flags k ~default =
  match flag flags k with
  | None -> default
  | Some v -> (
      match float_of_string_opt v with Some f when f > 0. -> f | _ -> usage ())

let nproc = Domain.recommended_domain_count ()

(* Metric values as {"name": {"value", "unit"}} in catalogue order. A
   per-layer metric the workload does not produce is a layer it never
   enters and reads 0; an end-to-end metric must always be there. *)
let metrics_json ~required (cat : Catalogue.metric list) values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Catalogue.metric) -> m.name = name) cat) then
        failwith ("metric missing from the catalogue: " ^ name))
    values;
  Json.obj
    (List.map
       (fun (m : Catalogue.metric) ->
         let v =
           match List.assoc_opt m.name values with
           | Some v -> v
           | None when required -> failwith ("metric not measured: " ^ m.name)
           | None -> 0.
         in
         (m.name, Json.obj [ ("value", Json.num v); ("unit", Json.str m.unit_) ]))
       cat)

let print_table title (cat : Catalogue.metric list) values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Catalogue.metric) ->
      Printf.printf "  %-32s %16.6g %s\n" m.name
        (Option.value (List.assoc_opt m.name values) ~default:0.)
        m.unit_)
    cat

let workload_cmd flags =
  let name = match flag flags "--workload" with Some n -> n | None -> usage () in
  let seed = match int_flag flags "--seed" with Some s -> s | None -> usage () in
  let smoke = flag flags "--smoke" <> None in
  let seconds = if smoke then 0.3 else float_flag flags "--seconds" ~default:20. in
  let traced =
    match flag flags "--trace" with
    | Some "1" -> true
    | Some "0" | None -> false
    | Some _ -> usage ()
  in
  let run, replay =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  let ctx =
    {
      Harness.workload = name;
      seed;
      seconds;
      smoke;
      traced;
      spans = Spans.create ();
      attempted = 0;
      failed = 0;
    }
  in
  match int_flag flags "--replay" with
  | Some k ->
      replay ctx k;
      exit (if ctx.failed = 0 then 0 else 1)
  | None ->
      Printf.printf "# workload %s seed %d window %gs trace %d nproc %d ocaml %s\n%!"
        name seed seconds (Bool.to_int traced) nproc Sys.ocaml_version;
      let r : Harness.result = run ctx in
      let correct = ctx.failed = 0 in
      let fail_share =
        Stats.ratio (float_of_int ctx.failed) (float_of_int ctx.attempted)
      in
      print_table
        (Printf.sprintf "end to end (%d unit-latency samples, p99 %.6g ms)"
           r.samples r.p99_ms)
        Catalogue.end_to_end r.e2e;
      if traced then print_table "per layer" Catalogue.per_layer r.layers;
      Printf.printf "attempted %d, failed %d, fail_share %g\n" ctx.attempted
        ctx.failed fail_share;
      let e2e = metrics_json ~required:true Catalogue.end_to_end r.e2e in
      let layers = metrics_json ~required:false Catalogue.per_layer r.layers in
      Printf.printf "report %s\n"
        (Json.obj
           ([
              ("workload", Json.str name);
              ("seed", string_of_int seed);
              ("seconds", Json.num seconds);
              ("smoke", string_of_bool smoke);
              ("nproc", string_of_int nproc);
              ("ocaml", Json.str Sys.ocaml_version);
              ("attempted", string_of_int ctx.attempted);
              ("failed", string_of_int ctx.failed);
              ("fail_share", Json.num fail_share);
              ("samples", string_of_int r.samples);
              ("unit_p99_ms", Json.num r.p99_ms);
              ("end_to_end", e2e);
            ]
           @ if traced then [ ("per_layer", layers) ] else []));
      Option.iter (Spans.write ctx.spans) (flag flags "--trace-out");
      Printf.printf "%s\n%!"
        (Json.obj
           [
             ("correct", string_of_bool correct);
             ("attempted", string_of_int ctx.attempted);
             ("failed", string_of_int ctx.failed);
             ("metrics", if traced then layers else e2e);
           ]);
      exit (if correct then 0 else 1)

(* ---- run: every workload, one process each ---- *)

(* Every metric the spec names must be emitted with the spec's unit, and
   every emitted metric must be in the spec. *)
let spec_problems (e2e, layers) (reports : (string * Json.t) list) =
  let check workload report section (spec : Compare.spec_metric list) =
    let emitted = Json.to_assoc (Json.member section report) in
    let unit_of name =
      Option.bind (List.assoc_opt name emitted) (fun v ->
          Json.to_str (Json.member "unit" v))
    in
    List.filter_map
      (fun (m : Compare.spec_metric) ->
        match unit_of m.name with
        | Some u when u = m.unit_ -> None
        | Some u ->
            Some
              (Printf.sprintf "%s: %s has unit %s, spec says %s" workload m.name
                 u m.unit_)
        | None -> Some (Printf.sprintf "%s: %s not emitted" workload m.name))
      spec
    @ List.filter_map
        (fun (name, _) ->
          if List.exists (fun (m : Compare.spec_metric) -> m.name = name) spec
          then None
          else
            Some (Printf.sprintf "%s: %s emitted but not in the spec" workload name))
        emitted
  in
  List.concat_map
    (fun (w, r) -> check w r "end_to_end" e2e @ check w r "per_layer" layers)
    reports

(* The traced DPOR round explores Mcheck.default's genome, whose bounded
   spaces are the model checker's reference counts. *)
let dpor_problems reports =
  match List.assoc_opt "sim-dpor" reports with
  | None -> [ "sim-dpor: no report" ]
  | Some r ->
      List.filter_map
        (fun (name, expected) ->
          match Compare.value ~section:"per_layer" ~name r with
          | Some v when v = expected -> None
          | v ->
              Some
                (Printf.sprintf "sim-dpor: %s = %s, expected %g" name
                   (match v with Some v -> Printf.sprintf "%g" v | None -> "missing")
                   expected))
        [
          ("Explore.sticky_schedules", 355.);
          ("Explore.verifiable_schedules", 2870.);
          ("Explore.testorset_schedules", 355.);
        ]

let run_cmd flags =
  let seed = match int_flag flags "--seed" with Some s -> s | None -> usage () in
  let smoke = flag flags "--smoke" <> None in
  let seconds = if smoke then 0.3 else float_flag flags "--seconds" ~default:20. in
  let reports = ref [] and problems = ref [] in
  List.iter
    (fun w ->
      let args =
        [ "--workload"; w; "--seed"; string_of_int seed ]
        @ [ "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "1" ]
        @ (if smoke then [ "--smoke" ] else [])
        @
        match flag flags "--trace-out" with
        | Some dir -> [ "--trace-out"; Filename.concat dir (w ^ ".jsonl") ]
        | None -> []
      in
      let ic =
        Unix.open_process_args_in Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
      in
      let rec relay () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            print_endline line;
            (if String.starts_with ~prefix:"report " line then
               let text = String.sub line 7 (String.length line - 7) in
               match Json.parse text with
               | Some j -> reports := (w, j, text) :: !reports
               | None -> problems := (w ^ ": unreadable report") :: !problems);
            relay ()
      in
      relay ();
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> problems := Printf.sprintf "%s: exit %d" w c :: !problems
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          problems := Printf.sprintf "%s: killed by signal %d" w s :: !problems)
    (List.map fst workloads);
  let raw = List.rev_map (fun (_, _, text) -> text) !reports in
  let reports = List.rev_map (fun (w, j, _) -> (w, j)) !reports in
  let problems =
    List.rev !problems
    @ (match flag flags "--spec" with
      | Some path -> spec_problems (Compare.load_spec path) reports
      | None -> [])
    @ dpor_problems reports
  in
  List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) problems;
  Printf.printf "%s\n"
    (Json.obj
       [
         ("seed", string_of_int seed);
         ("seconds", Json.num seconds);
         ("smoke", string_of_bool smoke);
         ("nproc", string_of_int nproc);
         ("ocaml", Json.str Sys.ocaml_version);
         ("correct", string_of_bool (problems = []));
         ("workloads", "[" ^ String.concat ", " raw ^ "]");
       ]);
  exit (if problems = [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_cmd (fst (parse_args rest))
  | "compare" :: rest ->
      let flags, files = parse_args rest in
      let spec_path = Option.value (flag flags "--spec") ~default:"BENCHMARK.json" in
      Compare.main ~spec_path files
  | rest ->
      let flags, pos = parse_args rest in
      if pos <> [] then usage ();
      workload_cmd flags
