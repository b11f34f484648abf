(* lnd — command-line driver for the lie_not_deny simulator.

   Subcommands:
     verify        run a verifiable-register scenario (optionally adversarial)
     sticky        run a sticky-register scenario (optionally adversarial)
     impossibility run the Theorem 23 / Figures 1-3 attack at a given (n, f)
     sweep         print operation-cost rows across n (like bench table T1/T3)
     fuzz          random Byzantine scenarios, replayable by seed
     chaos         message-passing protocols over faulty links (Faultnet +
                   retransmission), replayable by seed
     trace         replay a chaos seed with the observability sink and
                   export a deterministic JSONL / Chrome trace + metrics

   Examples:
     lnd_cli verify -n 7 -f 2 --adversary deny --seed 3
     lnd_cli sticky -n 4 -f 1 --adversary equivocate
     lnd_cli impossibility -f 2
     lnd_cli sweep --register sticky
     lnd_cli chaos --count 50
     lnd_cli chaos --seed 17
     lnd_cli trace --seed 17 --chrome /tmp/t.json --metrics *)

open Lnd
open Cmdliner

let pr fmt = Printf.printf fmt

(* ---------------- common args ---------------- *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(
    value & opt int 1
    & info [ "f" ] ~docv:"F" ~doc:"Number of tolerated Byzantine processes.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler randomness seed.")

(* An integer of at least [lo]; anything less is a usage error (exit
   124). *)
let at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok c when c < lo ->
        Error (`Msg (Printf.sprintf "need N >= %d, not %d" lo c))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

(* How many scenarios or seeds a sweep runs, or how many schedules a
   search may: below 1 is a usage error, not an empty sweep reported as
   a pass. *)
let count_conv = at_least 1

(* A file a command writes: a path in a missing directory, or one that
   names a directory, is a usage error (exit 124) before the run, not a
   Sys_error (exit 125) that loses the run's output after it. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (`Msg (Printf.sprintf "directory %s does not exist" dir))
    else if Sys.file_exists s && Sys.is_directory s then
      Error (`Msg (Printf.sprintf "%s is a directory" s))
    else Ok s
  in
  Arg.conv (parse, Format.pp_print_string)

(* A run of no step would only report its budget exhausted. *)
let steps_arg =
  Arg.(
    value & opt (at_least 1) 8_000_000
    & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Scheduler step budget.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Print the last 40 register accesses after the run.")

(* Run [run] and, with [trace], list the last 40 register accesses it
   made, numbered from 0 in the order they happened: a sink installed
   around the run keeps the last 40 [Shm_access] events. *)
let with_access_trace trace run =
  if not trace then run ()
  else begin
    let last = Queue.create () and seen = ref 0 in
    let keep (e : Obs.event) =
      match e.kind with
      | Obs.Shm_access { access; reg; value } ->
          Queue.add (!seen, e.pid, access, reg, value) last;
          incr seen;
          if Queue.length last > 40 then ignore (Queue.take last)
      | _ -> ()
    in
    Obs.install { Obs.emit = keep };
    Fun.protect ~finally:Obs.uninstall run;
    pr "\nlast register accesses:\n";
    Queue.iter
      (fun (i, pid, access, reg, value) ->
        pr "  #%d p%d %s %s = %s\n" i pid
          (match access with `Read -> "reads " | `Write -> "writes")
          reg
          (Format.asprintf "%a" Univ.pp value))
      last
  end

(* Sizes a scenario cannot be built at are usage errors (exit 124),
   rejected before anything is built: fewer than two processes, a
   negative f, more colluders than the readers can host — they run at
   pids n-f..n-1 and leave the writer, pid 0, to its own role — or a
   Byzantine writer when f = 0, which makes one more faulty process than
   the quorums tolerate. [strategy] is the adversary's strategy and
   whether it is the writer, as [verify_strategy] gives it. *)
let check_sizes ~n ~f strategy run =
  if n < 2 then `Error (true, Printf.sprintf "need N >= 2 processes (-n %d)" n)
  else if f < 0 then `Error (true, Printf.sprintf "need F >= 0 (-f %d)" f)
  else
    match strategy with
    | Some (_, false) when f >= n ->
        `Error
          ( true,
            Printf.sprintf
              "the adversary's F colluders run at pids N-F..N-1, above the \
               writer: need F < N (-n %d -f %d)"
              n f )
    | Some (_, true) when f = 0 ->
        `Error
          ( true,
            "the adversary is a Byzantine writer, one faulty process: need \
             F >= 1 (-f 0)" )
    | _ -> `Ok (run ())

(* Both algorithms need n > 3f (Theorems 14 and 19), whatever the
   adversary: outside it the run goes ahead, to show what breaks. *)
let warn_bound ~alg ~n ~f =
  if n <= 3 * f then
    pr "warning: n <= 3f — outside Algorithm %d's requirement\n" alg

(* A protocol or backend named on the command line; an unknown name is a
   usage error (exit 124), like any other bad option value. *)
let proto_conv =
  Arg.enum (List.map (fun p -> (Diff.proto_name p, p)) Diff.all_protos)

let backend_name = function `Sim -> "sim" | `Domains -> "domains"

let run_to_quiescence sched ~max_steps =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent -> ()
  | Sched.Budget_exhausted ->
      pr "!! step budget exhausted\n";
      exit 2
  | Sched.Condition_met -> ()

(* Run a session to quiescence, printing each completed operation as it
   returned (in response order) with [print], then the run's totals and
   whether its history is Byzantine linearizable ([byzlin]). *)
let run_session (s : (_, _, _) Diff.session) ~max_steps ~print ~byzlin =
  let stop = Sched.run ~max_steps s.sched in
  let h = s.history () in
  List.iter print
    (List.sort
       (fun a b -> compare (History.response_time a) (History.response_time b))
       (History.complete_entries h));
  if stop = Sched.Budget_exhausted then begin
    pr "!! step budget exhausted\n";
    exit 2
  end;
  pr "steps: %d, register accesses: %s\n" (Sched.steps s.sched)
    (Format.asprintf "%a" Space.pp_stats (Space.stats s.space));
  pr "Byzantine linearizable: %b\n"
    (byzlin ~correct:(fun pid -> s.correct.(pid)) h)

(* ---------------- verify ---------------- *)

let verify_adversaries = [ "none"; "deny"; "flipflop"; "naysay"; "garbage" ]

(* Each adversary's strategy, and whether it is the writer (pid 0) or
   f colluders. *)
let verify_strategy : string -> (Byz_script.strategy * bool) option = function
  | "deny" ->
      Some (Byz_script.Denying_writer { v = "the-lie"; deny_after = 2 }, true)
  | "flipflop" -> Some (Byz_script.Flipflop "the-lie", false)
  | "naysay" -> Some (Byz_script.Naysayer, false)
  | "garbage" -> Some (Byz_script.Garbage, false)
  | _ -> None

let byzantine_of ~n ~f = function
  | Some (_, true) -> [ 0 ]
  | Some (_, false) -> List.init f (fun i -> n - 1 - i)
  | None -> []

let scripts_of byzantine = function
  | Some (s, _) -> List.map (fun pid -> (pid, s)) byzantine
  | None -> []

let verify_cmd_run n f seed max_steps adversary trace =
  warn_bound ~alg:1 ~n ~f;
  let strategy = verify_strategy adversary in
  let byzantine = byzantine_of ~n ~f strategy in
  let q = Quorum.make_relaxed ~n ~f in
  let s =
    Diff.session (Policy.random ~seed)
      (Diff.verifiable_plan q ~byzantine
         ~scripts:(scripts_of byzantine strategy))
  in
  if adversary <> "deny" then
    s.client ~pid:0 ~name:"writer"
      [ Diff.write_verifiable "the-lie"; Diff.sign "the-lie" ];
  for pid = 1 to n - 1 do
    if not (List.mem pid byzantine) then
      s.client ~pid
        ~name:(Printf.sprintf "verifier%d" pid)
        [ Diff.verify q ~pid "the-lie" ]
  done;
  with_access_trace trace (fun () ->
      run_session s ~max_steps
        ~byzlin:(fun ~correct h -> Byzlin.verifiable ~writer:0 ~correct h)
        ~print:(fun
            (e :
              (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) History.entry)
          ->
          match e.ret with
          | Some (Spec.Verifiable_spec.Signed ok, _) ->
              pr "p0: WRITE+SIGN \"the-lie\" -> %s\n"
                (if ok then "SUCCESS" else "FAIL")
          | Some (Spec.Verifiable_spec.Verified r, _) ->
              pr "p%d: VERIFY(\"the-lie\") -> %b\n" e.pid r
          | _ -> ()))

let verify_cmd =
  let adversary =
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) verify_adversaries)) "none"
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:
            "Adversary: none, deny (Byzantine writer lies then denies), \
             flipflop, naysay, garbage.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run a verifiable-register scenario (Algorithm 1)")
    Term.(
      ret
        (const (fun n f seed max_steps adversary trace ->
             check_sizes ~n ~f (verify_strategy adversary) (fun () ->
                 verify_cmd_run n f seed max_steps adversary trace))
        $ n_arg $ f_arg $ seed_arg $ steps_arg $ adversary $ trace_arg))

(* ---------------- sticky ---------------- *)

let sticky_adversaries = [ "none"; "equivocate"; "deny"; "garbage" ]

let sticky_strategy : string -> (Byz_script.strategy * bool) option =
  function
  | "equivocate" ->
      Some
        ( Byz_script.Equivocating_writer
            { va = "attack"; vb = "retreat"; flip_after = 2 },
          true )
  | "deny" -> Some (Byz_script.Denying_writer { v = "kept"; deny_after = 3 }, true)
  | "garbage" -> Some (Byz_script.Garbage, false)
  | _ -> None

let sticky_cmd_run n f seed max_steps adversary =
  warn_bound ~alg:2 ~n ~f;
  let strategy = sticky_strategy adversary in
  let byzantine = byzantine_of ~n ~f strategy in
  let q = Quorum.make_relaxed ~n ~f in
  let s =
    Diff.session (Policy.random ~seed)
      (Diff.sticky_plan q ~byzantine ~scripts:(scripts_of byzantine strategy))
  in
  if byzantine = [] || adversary = "garbage" then
    s.client ~pid:0 ~name:"writer" [ Diff.write_sticky q "first-value" ];
  for pid = 1 to n - 1 do
    if not (List.mem pid byzantine) then
      s.client ~pid
        ~name:(Printf.sprintf "reader%d" pid)
        [ Diff.read_sticky q ~pid ]
  done;
  run_session s ~max_steps
    ~byzlin:(fun ~correct h -> Byzlin.sticky ~writer:0 ~correct h)
    ~print:(fun (e : (Spec.Sticky_spec.op, Spec.Sticky_spec.res) History.entry)
      ->
      match e.ret with
      | Some (Spec.Sticky_spec.Done, _) -> pr "p0: WRITE \"first-value\" done\n"
      | Some (Spec.Sticky_spec.Val r, _) ->
          pr "p%d: READ -> %s\n" e.pid
            (match r with Some v -> Printf.sprintf "%S" v | None -> "⊥")
      | None -> ())

let sticky_cmd =
  let adversary =
    Arg.(
      value
      & opt (enum (List.map (fun a -> (a, a)) sticky_adversaries)) "none"
      & info [ "adversary" ] ~docv:"ADV"
          ~doc:"Adversary: none, equivocate, deny, garbage.")
  in
  Cmd.v
    (Cmd.info "sticky" ~doc:"Run a sticky-register scenario (Algorithm 2)")
    Term.(
      ret
        (const (fun n f seed max_steps adversary ->
             check_sizes ~n ~f (sticky_strategy adversary) (fun () ->
                 sticky_cmd_run n f seed max_steps adversary))
        $ n_arg $ f_arg $ seed_arg $ steps_arg $ adversary))

(* ---------------- impossibility ---------------- *)

let impossibility_cmd_run f seed =
  pr "Theorem 23 / Figures 1-3 attack (register-reset + deny):\n\n";
  List.iter
    (fun n ->
      match Impossibility.run_attack ~seed ~n ~f () with
      | o -> pr "  %s\n" (Format.asprintf "%a" Impossibility.pp_outcome o)
      | exception Impossibility.Phase_stuck phase ->
          pr "!! n=%d: %s did not finish within its step budget\n" n phase;
          exit 2)
    [ 3 * f; (3 * f) + 1 ]

let impossibility_cmd =
  Cmd.v
    (Cmd.info "impossibility"
       ~doc:"Run the Theorem 23 attack at n = 3f and n = 3f + 1")
    Term.(
      ret
        (const (fun f seed ->
             if f < 1 then
               `Error
                 ( true,
                   Printf.sprintf
                     "the attack runs at N = 3F and 3F + 1: need F >= 1 (-f %d)"
                     f )
             else `Ok (impossibility_cmd_run f seed))
        $ f_arg $ seed_arg))

(* ---------------- fuzz ---------------- *)

let fuzz_cmd_run from count =
  let failures = ref 0 in
  for seed = from to from + count - 1 do
    let scenario = Lnd_fuzz.Fuzz.generate seed in
    match Lnd_fuzz.Fuzz.run scenario with
    | Ok r ->
        pr "ok   %s (%d ops, %d steps%s)\n"
          (Format.asprintf "%a" Lnd_fuzz.Fuzz.pp_scenario scenario)
          r.Lnd_fuzz.Fuzz.operations r.Lnd_fuzz.Fuzz.steps
          (if r.Lnd_fuzz.Fuzz.checked_linearizability then ", linearizability checked"
           else "")
    | Error msg ->
        incr failures;
        pr "FAIL %s: %s\n"
          (Format.asprintf "%a" Lnd_fuzz.Fuzz.pp_scenario scenario)
          msg
  done;
  pr "%d scenarios, %d failures\n" count !failures;
  if !failures > 0 then exit 1

let fuzz_cmd =
  let from =
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let count =
    Arg.(
      value & opt count_conv 20
      & info [ "count" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate and check random Byzantine scenarios (replayable by \
          seed)")
    Term.(const fuzz_cmd_run $ from $ count)

(* ---------------- chaos ---------------- *)

let chaos_cmd_run from count seed_opt crash =
  let seeds =
    match seed_opt with
    | Some s -> [ s ]
    | None -> List.init count (fun i -> from + i)
  in
  let generate =
    if crash then Lnd_fuzz.Chaos.generate_crash else Lnd_fuzz.Chaos.generate
  in
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let scenario = generate seed in
      match Lnd_fuzz.Chaos.run scenario with
      | Ok r ->
          pr "ok   %s\n     %s\n"
            (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_scenario scenario)
            (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_report r)
      | Error msg ->
          incr failures;
          pr "FAIL %s: %s\n"
            (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_scenario scenario)
            msg)
    seeds;
  pr "%d scenarios, %d failures\n" (List.length seeds) !failures;
  if !failures > 0 then exit 1

let chaos_cmd =
  let from =
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let count =
    Arg.(
      value & opt count_conv 20
      & info [ "count" ] ~docv:"N" ~doc:"Number of scenarios to run.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Replay exactly one scenario by its seed.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Generate crash-restart scenarios instead: correct replicas \
             crash mid-run (volatile state lost, disk torn at a seeded \
             point), recover from their write-ahead log, and rejoin via \
             state transfer — composed with the usual link faults and \
             Byzantine adversaries.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the message-passing protocols over faulty links — seeded \
          drop/duplication/reorder/partition plans composed with Byzantine \
          adversaries, with retransmission recovering liveness (replayable \
          by seed)")
    Term.(const chaos_cmd_run $ from $ count $ seed $ crash)

(* ---------------- trace ---------------- *)

let trace_cmd_run seed crash full out chrome metrics =
  let scenario =
    if crash then Lnd_fuzz.Chaos.generate_crash seed
    else Lnd_fuzz.Chaos.generate seed
  in
  let keep = if full then None else Some Lnd_fuzz.Chaos.compact_keep in
  let outcome, tr = Lnd_fuzz.Chaos.run_traced ?keep scenario in
  (match out with
  | "-" -> print_string (Trace.to_jsonl tr)
  | file ->
      let oc = open_out file in
      output_string oc (Trace.to_jsonl tr);
      close_out oc;
      Printf.eprintf "trace: %d events -> %s\n" (Trace.size tr) file);
  (match chrome with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Trace.to_chrome tr);
      close_out oc;
      Printf.eprintf "chrome trace -> %s\n" file);
  if metrics then
    prerr_string (Metrics.dump (Metrics.of_events (Trace.events tr)));
  match outcome with
  | Ok r ->
      Printf.eprintf "ok   %s\n     %s\n"
        (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_scenario scenario)
        (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_report r)
  | Error msg ->
      Printf.eprintf "FAIL %s: %s\n"
        (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_scenario scenario)
        msg;
      exit 1

let trace_cmd =
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:"Replay a crash-restart scenario instead of a link-fault one.")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Keep per-step events (fiber switches, shared-memory accesses) \
             instead of the compact protocol-level stream.")
  in
  let out =
    Arg.(
      value & opt out_file "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the JSONL trace to $(docv) ('-' = stdout).")
  in
  let chrome =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome-trace JSON file (load in chrome://tracing \
             or Perfetto).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Dump the trace-derived metrics registry to stderr.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a chaos seed with the observability sink installed and \
          export its causal trace — deterministic JSONL (and optionally a \
          Chrome trace) plus trace-derived metrics; the run verdict goes to \
          stderr")
    Term.(
      const trace_cmd_run $ seed_arg $ crash $ full $ out $ chrome $ metrics)

(* ---------------- profile ---------------- *)

let profile_cmd_run seed proto backend out metrics_json =
  let w = Diff.generate ~proto seed in
  (* The sim records everything (bounded and deterministic: the folded
     output is byte-identical across replays of the same seed); the
     domains backend records operation spans only (Diff.parity_keep):
     the parity fold reads nothing else, and recording its register
     accesses is an open ROADMAP item. *)
  let r, ti =
    match backend with
    | `Sim -> Diff.sim_traced ~keep:(fun _ -> true) w
    | `Domains -> Parallel.run_traced w
  in
  let evs = Trace.events ti.Diff.t_trace in
  let folded = Profile.to_folded evs in
  (match out with
  | "-" -> print_string folded
  | file ->
      let oc = open_out file in
      output_string oc folded;
      close_out oc;
      Printf.eprintf "folded stacks: %d rows -> %s\n"
        (List.length (Profile.stacks evs))
        file);
  (match metrics_json with
  | None -> ()
  | Some file ->
      let m = Metrics.of_events ~dropped:ti.Diff.t_dropped evs in
      let oc = open_out file in
      output_string oc (Metrics.to_json m);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "metrics snapshot -> %s\n" file);
  let bname = backend_name backend in
  match r.Diff.verdict with
  | Ok () -> Printf.eprintf "ok   [%s] %s\n" bname (Diff.describe w)
  | Error msg ->
      Printf.eprintf "FAIL [%s] %s: %s\n" bname (Diff.describe w) msg;
      exit 1

let profile_cmd =
  let proto =
    Arg.(
      value & opt proto_conv Diff.Sticky
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:"Protocol to profile (sticky|verifiable|testorset).")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Driver to profile: the deterministic simulator ($(b,sim)) or \
             the OCaml 5 domains backend ($(b,domains)).")
  in
  let out =
    Arg.(
      value & opt out_file "-"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the folded stacks to $(docv) ('-' = stdout).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Also write the trace-derived metrics registry as a JSON \
             snapshot (deterministic, sorted keys).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a seed-derived register workload with the trace sink \
          installed and export flamegraph folded stacks — per-span self \
          time in logical steps, aggregated over the span tree (pipe into \
          flamegraph.pl or load in speedscope). On the sim backend the \
          output is byte-identical across replays of the same seed")
    Term.(
      const profile_cmd_run $ seed_arg $ proto $ backend $ out $ metrics_json)

(* ---------------- audit ---------------- *)

let audit_cmd_run seed count crash json strict =
  let audit_one seed =
    let scenario =
      if crash then Lnd_fuzz.Chaos.generate_crash seed
      else Lnd_fuzz.Chaos.generate seed
    in
    let outcome, _tr, report =
      Lnd_fuzz.Chaos.run_audited ~keep:Lnd_fuzz.Chaos.compact_keep scenario
    in
    let accused = Audit.accused report in
    let detectable = Lnd_fuzz.Chaos.detectable scenario in
    let byz = Lnd_fuzz.Chaos.byzantine_pids scenario in
    let false_blame = List.filter (fun p -> not (List.mem p byz)) accused in
    let missed = List.filter (fun p -> not (List.mem p accused)) detectable in
    if json then
      pr "{\"seed\":%d,\"crash\":%b,\"adversary\":\"%s\",\"detectable\":[%s],\
          \"false_blame\":[%s],\"missed\":[%s],\"report\":%s}\n"
        seed crash
        (Lnd_fuzz.Chaos.adversary_name scenario.Lnd_fuzz.Chaos.adversary)
        (String.concat "," (List.map string_of_int detectable))
        (String.concat "," (List.map string_of_int false_blame))
        (String.concat "," (List.map string_of_int missed))
        (Audit.report_to_json report)
    else begin
      pr "%s %s\n"
        (match outcome with Ok _ -> "ok  " | Error _ -> "FAIL")
        (Format.asprintf "%a" Lnd_fuzz.Chaos.pp_scenario scenario);
      pr "     %s\n" (Format.asprintf "%a" Audit.pp_report report)
    end;
    (outcome, false_blame, missed)
  in
  let failures = ref 0 in
  for s = seed to seed + count - 1 do
    let outcome, false_blame, missed = audit_one s in
    let bad =
      (match outcome with Ok _ -> false | Error _ -> true)
      || false_blame <> [] || missed <> []
    in
    if bad then begin
      incr failures;
      Printf.eprintf "AUDIT FAIL seed=%d%s: run=%s false_blame=[%s] \
                      missed=[%s]\n"
        s
        (if crash then " --crash" else "")
        (match outcome with Ok _ -> "ok" | Error e -> e)
        (String.concat "," (List.map string_of_int false_blame))
        (String.concat "," (List.map string_of_int missed))
    end
  done;
  if strict && !failures > 0 then exit 1

let audit_cmd =
  let count =
    Arg.(
      value & opt count_conv 1
      & info [ "count" ] ~docv:"N"
          ~doc:"Audit $(docv) consecutive seeds starting at --seed.")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:"Audit crash-restart scenarios instead of link-fault ones.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object per seed (scenario, ground truth, blame \
             report) instead of the human-readable summary.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero if any seed fails its run, accuses a correct \
             process (false blame) or misses a detectable Byzantine pid.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Replay chaos seeds with the accountability auditor fanned out \
          next to the trace sink and print the blame report: every \
          detectable Byzantine pid must be attributed, and no correct \
          process may ever be accused")
    Term.(const audit_cmd_run $ seed_arg $ count $ crash $ json $ strict)

(* ---------------- sweep ---------------- *)

let sweep_cmd_run register =
  let sweep = [ (4, 1); (7, 2); (10, 3); (13, 4) ] in
  (* Run one client at [pid]; its register accesses. *)
  let cost (s : (_, _, _) Diff.session) ~pid jobs =
    let before = Space.stats_of_pid s.space pid in
    s.client ~pid ~name:(if pid = 0 then "w" else "v") jobs;
    run_to_quiescence s.sched ~max_steps:8_000_000;
    let after = Space.stats_of_pid s.space pid in
    ( after.Space.reads - before.Space.reads,
      after.Space.writes - before.Space.writes )
  in
  (match register with
  | "verifiable" ->
      pr "%4s %4s | %10s | %10s\n" "n" "f" "verify rds" "rounds";
      List.iter
        (fun (n, f) ->
          let q = Quorum.make_relaxed ~n ~f in
          let s =
            Diff.session (Policy.random ~seed:42)
              (Diff.verifiable_plan q ~byzantine:[] ~scripts:[])
          in
          ignore
            (cost s ~pid:0 [ Diff.write_verifiable "v"; Diff.sign "v" ]
              : int * int);
          let reads, rounds = cost s ~pid:1 [ Diff.verify q ~pid:1 "v" ] in
          pr "%4d %4d | %10d | %10d\n" n f reads rounds)
        sweep
  | _ ->
      pr "%4s %4s | %10s | %10s\n" "n" "f" "write rds" "read rds";
      List.iter
        (fun (n, f) ->
          let q = Quorum.make_relaxed ~n ~f in
          let s =
            Diff.session (Policy.random ~seed:42)
              (Diff.sticky_plan q ~byzantine:[] ~scripts:[])
          in
          let wr, _ = cost s ~pid:0 [ Diff.write_sticky q "v" ] in
          let rr, _ = cost s ~pid:1 [ Diff.read_sticky q ~pid:1 ] in
          pr "%4d %4d | %10d | %10d\n" n f wr rr)
        sweep);
  pr "(full tables: dune exec bench/main.exe)\n"

let sweep_cmd =
  let register =
    Arg.(
      value
      & opt (enum [ ("verifiable", "verifiable"); ("sticky", "sticky") ])
          "verifiable"
      & info [ "register" ] ~docv:"REG" ~doc:"verifiable or sticky.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Print operation-cost rows across system sizes")
    Term.(const sweep_cmd_run $ register)

(* ---------------- explore / synth / scenario ---------------- *)

let model_arg =
  Arg.(
    value
    & opt proto_conv Mcheck.Sticky
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Register model: sticky, verifiable or testorset.")

let save_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Serialise a found violation as an lnd-scenario file.")

let save_scenario cfg cx = function
  | None -> ()
  | Some path ->
      let name = Filename.remove_extension (Filename.basename path) in
      Scenario.save path (Scenario.of_violation ~name cfg cx);
      pr "scenario saved to %s\n" path

let explore_cmd_run model weakened mode max_steps max_runs preempts strict save
    =
  let cfg =
    if weakened then Mcheck.weakened
    else { Mcheck.default with Mcheck.model }
  in
  (* DPOR's preemption bound defaults to 0; the naive DFS has none *)
  let max_preempts, bound =
    match mode with
    | `Dpor ->
        let p = Option.value preempts ~default:0 in
        (Some p, Printf.sprintf "mode=dpor preempts=%d" p)
    | `Naive -> (None, "mode=naive")
  in
  pr "exploring %s (%s max-steps=%d)\n" (Mcheck.note cfg) bound max_steps;
  match Mcheck.explore ~mode ~max_steps ~max_runs ?max_preempts cfg with
  | r ->
      pr "runs=%d pruned=%d blocked=%d races=%d exhausted=%b max-depth=%d\n"
        r.Explore.runs r.Explore.pruned r.Explore.blocked r.Explore.races
        r.Explore.exhausted r.Explore.max_depth;
      if strict && not r.Explore.exhausted then exit 2
  | exception Explore.Violation cx ->
      pr "%s\n" (Format.asprintf "%a" Explore.pp_counterexample cx);
      save_scenario cfg cx save;
      exit 3

let explore_cmd =
  let weakened =
    Arg.(
      value & flag
      & info [ "weakened" ]
          ~doc:
            "Explore the deliberately weakened configuration (two actual \
             colluders against f=1 quorums) instead of the clean default.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("dpor", `Dpor); ("naive", `Naive) ]) `Dpor
      & info [ "mode" ] ~docv:"MODE" ~doc:"dpor or naive (baseline DFS).")
  in
  (* Bounds that leave nothing to explore are usage errors: a run of no
     steps, one that cannot afford its first choice, or a budget of no
     run would report a space it never entered as exhausted. *)
  let max_steps =
    Arg.(
      value & opt (at_least 1) 600
      & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Per-run step budget.")
  in
  let max_runs =
    Arg.(
      value & opt count_conv 200_000
      & info [ "max-runs" ] ~docv:"RUNS" ~doc:"Total schedule budget.")
  in
  let preempts =
    Arg.(
      value
      & opt (some (at_least 0)) None
      & info [ "preempts" ] ~docv:"P"
          ~doc:
            "CHESS-style preemption bound (involuntary switches per run) of \
             the DPOR search; 0 by default. The naive DFS takes none.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero unless the bounded space was exhausted.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check a paper configuration: DPOR over every schedule of \
          at most STEPS steps and P preemptions, checking monitors, \
          stickiness, Byzantine linearizability and blame soundness at \
          quiescence")
    Term.(
      ret
        (const
           (fun model weakened mode max_steps max_runs preempts strict save ->
             match (mode, preempts) with
             | `Naive, Some p ->
                 `Error
                   ( true,
                     Printf.sprintf
                       "the naive DFS has no preemption bound: --preempts \
                        needs --mode dpor (--preempts %d)"
                       p )
             | _ ->
                 `Ok
                   (explore_cmd_run model weakened mode max_steps max_runs
                      preempts strict save))
        $ model_arg $ weakened $ mode $ max_steps $ max_runs $ preempts
        $ strict $ save_arg))

let synth_cmd_run seed rounds batch scname from_honest save =
  let base =
    if from_honest then
      { Mcheck.weakened with Mcheck.scripts = [ (2, [ 2; 2 ]); (3, [ 2; 2 ]) ] }
    else Mcheck.weakened
  in
  pr "synthesising against %s\n" (Mcheck.note base);
  let o = Synth.hillclimb ~rounds ~batch ~seed ~name:scname base in
  pr "evals=%d rounds=%d best-fitness=%d\n" o.Synth.evals o.Synth.rounds_used
    o.Synth.best_fitness;
  match o.Synth.found with
  | None ->
      pr "no violating adversary found\n";
      exit 1
  | Some sc ->
      pr "violating scenario:\n%s" (Scenario.to_string sc);
      (match save with
      | None -> ()
      | Some path ->
          Scenario.save path sc;
          pr "scenario saved to %s\n" path)

let synth_cmd =
  (* A search of no round, or of candidates of no schedule, evaluates
     nothing: a usage error, not "no violating adversary found". *)
  let rounds =
    Arg.(
      value & opt (at_least 1) 50
      & info [ "rounds" ] ~docv:"R" ~doc:"Hill-climbing rounds.")
  in
  let batch =
    Arg.(
      value & opt (at_least 1) 6
      & info [ "batch" ] ~docv:"B" ~doc:"Schedule seeds per candidate.")
  in
  let scname =
    Arg.(
      value & opt string "synthesised"
      & info [ "name" ] ~docv:"NAME" ~doc:"Name of the emitted scenario.")
  in
  let from_honest =
    Arg.(
      value & flag
      & info [ "from-honest" ]
          ~doc:
            "Start from all-honest scripts, so the search must mutate the \
             adversary itself (not just the schedule) to violate.")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Search the joint schedule × Byzantine-script space of the \
          weakened configuration for a property violation, and serialise \
          it as a replayable scenario")
    Term.(
      const synth_cmd_run $ seed_arg $ rounds $ batch $ scname $ from_honest
      $ save_arg)

let scenario_cmd_run files =
  let failed = ref 0 in
  List.iter
    (fun file ->
      match Scenario.load file with
      | Error e ->
          incr failed;
          pr "%-40s PARSE ERROR %s\n" file e
      | Ok sc -> (
          match Scenario.run sc with
          | Ok () -> pr "%-40s OK (%s)\n" file sc.Scenario.sc_name
          | Error e ->
              incr failed;
              pr "%-40s FAIL %s\n" file e))
    files;
  if !failed > 0 then exit 1

let scenario_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Re-execute serialised lnd-scenario files and check each still \
          meets its recorded expectation (violation or pass)")
    Term.(const scenario_cmd_run $ files)

let diff_cmd_run write_golden check_golden seeds from proto backends traced
    trace_out =
  let protos = match proto with None -> Diff.all_protos | Some p -> [ p ] in
  match (write_golden, check_golden) with
  | Some path, _ ->
      Diff.write_golden path;
      pr "wrote %d golden sim lines to %s\n"
        (Diff.golden_seed_count * List.length Diff.all_protos)
        path
  | None, Some path -> (
      match Diff.check_golden path with
      | [] ->
          pr "golden sim baselines OK (%d lines byte-identical)\n"
            (Diff.golden_seed_count * List.length Diff.all_protos)
      | mismatches ->
          List.iter
            (fun (i, e, g) ->
              pr "line %d MISMATCH\n  expected: %s\n  got:      %s\n" i e g)
            mismatches;
          exit 1)
  | None, None ->
      let traced = traced || trace_out <> None in
      let exec backend w =
        match (backend, traced) with
        | `Sim, false -> (Diff.sim w, None)
        | `Sim, true ->
            let r, ti = Diff.sim_traced w in
            (r, Some ti)
        | `Domains, false -> (Parallel.run w, None)
        | `Domains, true ->
            let r, ti = Parallel.run_traced w in
            (r, Some ti)
      in
      let failed = ref 0 in
      for seed = from to from + seeds - 1 do
        List.iter
          (fun proto ->
            let w = Diff.generate ~proto seed in
            List.iter
              (fun backend ->
                let bname = backend_name backend in
                let r, ti = exec backend w in
                (match r.Diff.verdict with
                | Ok () ->
                    pr "ok   [%s] %s ops=%d steps=%d\n" bname (Diff.describe w)
                      r.Diff.ops r.Diff.steps
                | Error m ->
                    incr failed;
                    pr "FAIL [%s] %s: %s\n" bname (Diff.describe w) m);
                match ti with
                | None -> ()
                | Some ti ->
                    (* The trace-parity axis: the merged trace must be
                       complete, well-nested, and fold — through
                       Trace_replay — to the same number of operations
                       and an accepted history whenever the direct one
                       was accepted. *)
                    let problems =
                      (match ti.Diff.t_nesting with
                      | Some m -> [ "ill-nested: " ^ m ]
                      | None -> [])
                      @ (if ti.Diff.t_dropped > 0 then
                           [ Printf.sprintf "dropped=%d" ti.Diff.t_dropped ]
                         else [])
                      @ (if ti.Diff.t_ops <> r.Diff.ops then
                           [
                             Printf.sprintf "trace ops=%d direct ops=%d"
                               ti.Diff.t_ops r.Diff.ops;
                           ]
                         else [])
                      @
                      match (r.Diff.verdict, ti.Diff.t_verdict) with
                      | Ok (), Error m -> [ "trace verdict: " ^ m ]
                      | _ -> []
                    in
                    (match problems with
                    | [] ->
                        pr "     trace[%s] events=%d ops=%d well-nested\n"
                          bname ti.Diff.t_events ti.Diff.t_ops
                    | ps ->
                        incr failed;
                        pr "FAIL trace[%s] %s: %s\n" bname (Diff.describe w)
                          (String.concat "; " ps));
                    match trace_out with
                    | None -> ()
                    | Some dir ->
                        let file =
                          Filename.concat dir
                            (Printf.sprintf "diff_%s_seed%d_%s.jsonl"
                               (Diff.proto_name proto) seed bname)
                        in
                        let oc = open_out file in
                        output_string oc (Trace.to_jsonl ti.Diff.t_trace);
                        close_out oc)
              backends)
          protos
      done;
      if !failed > 0 then exit 1

let diff_cmd =
  let write_golden =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "write-golden" ] ~docv:"FILE"
          ~doc:
            "Regenerate the committed sim-driver golden baselines (one \
             canonical history line per (seed, protocol)) and exit.")
  in
  let check_golden =
    Arg.(
      value
      & opt (some file) None
      & info [ "check-golden" ] ~docv:"FILE"
          ~doc:
            "Re-run the golden workloads on the sim driver and fail unless \
             every line is byte-identical to $(docv).")
  in
  let seeds =
    Arg.(
      value & opt count_conv 10
      & info [ "seeds" ] ~docv:"N" ~doc:"How many seeds to sweep.")
  in
  let from =
    Arg.(
      value & opt int 1 & info [ "from" ] ~docv:"SEED" ~doc:"First seed.")
  in
  let proto =
    Arg.(
      value
      & opt (some proto_conv) None
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:"Restrict to one protocol (sticky|verifiable|testorset).")
  in
  let backend =
    Arg.(
      value
      & opt
          (enum
             [
               ("sim", [ `Sim ]);
               ("domains", [ `Domains ]);
               ("both", [ `Sim; `Domains ]);
             ])
          [ `Sim ]
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Which driver(s) to sweep: the deterministic simulator ($(b,sim)), \
             the OCaml 5 domains backend ($(b,domains)), or $(b,both).")
  in
  let traced =
    Arg.(
      value & flag
      & info [ "traced" ]
          ~doc:
            "Record each run through the per-domain arena sink and check \
             trace parity: the merged trace must be complete and \
             well-nested, and fold (via Trace_replay) to the same op count \
             and an accepted history whenever the direct history was \
             accepted.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some dir) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Write each merged trace to \
             $(docv)/diff_<proto>_seed<N>_<backend>.jsonl (implies \
             $(b,--traced)).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differential conformance: run seed-derived workloads on the \
          deterministic simulator and/or the OCaml 5 domains backend (and \
          check the sim against the committed golden baselines)")
    Term.(
      const diff_cmd_run $ write_golden $ check_golden $ seeds $ from $ proto
      $ backend $ traced $ trace_out)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "lnd_cli" ~version:"1.0.0"
             ~doc:
               "Simulate SWMR verifiable and sticky registers in systems \
                with Byzantine processes (Hu & Toueg, PODC 2025)")
          [
            verify_cmd; sticky_cmd; impossibility_cmd; sweep_cmd; fuzz_cmd;
            chaos_cmd; trace_cmd; profile_cmd; audit_cmd; explore_cmd;
            synth_cmd; scenario_cmd; diff_cmd;
          ]))
