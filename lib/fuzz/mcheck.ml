(* Model-checking harness: paper configurations as explorable systems.

   Mcheck turns one declarative [config] — protocol, (n, f), which pids
   are actually Byzantine (possibly more than the declared f: the
   deliberately weakened configurations), their Byz_script genomes and
   the correct clients' programs — into the (make, check) pair the
   Lnd_runtime.Explore engines drive. The config becomes a Diff.work
   once per instance; [make] builds a plan of it (Diff.plan) and the sim
   driver's system under the explorer's policy, then hands that system
   back for every later schedule, for the explorer to rewind to the
   prefix the schedule shares with the last one — unless it can no
   longer rewind (audit mode's Obs sink), when it builds a fresh one.
   [check] runs at quiescence and raises [Property_violated] when the
   run breaks a paper property:

   - no correct fiber crashed;
   - the protocol's judge (Diff.check_*_history): the observational
     monitors (uniqueness — which covers stickiness, Observation 18 —
     and validity for sticky; relay, validity and unforgeability for
     verifiable; for test-or-set, a TEST=1 never followed by a TEST=0,
     Definition 20), then Byzantine linearizability of the recorded
     history (Theorems 14, 19, Observation 25) via the exhaustive
     Lnd_history.Byzlin checker;
   - blame soundness: with [audit = true] every run also streams its
     events through the forensic auditor, and an accusation against a
     correct pid is itself a violation (zero false blame must hold on
     every schedule, not just the sampled ones).

   The per-run event trace (audit mode) and the run's register access
   count (the Space's own read and write counters) are exposed so the
   synthesiser can derive fitness metrics and the T15 benchmark can
   report work per schedule. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Explore = Lnd_runtime.Explore
module Space = Lnd_shm.Space
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Audit = Lnd_audit.Audit
module Diff = Lnd_parallel.Diff

type model = Diff.proto = Sticky | Verifiable | Testorset

type config = {
  model : model;
  n : int;
  f : int; (* declared f: fixes every quorum threshold *)
  byzantine : int list; (* actually faulty pids; may exceed f *)
  scripts : (int * int list) list; (* Byz_script genome per scripted pid *)
  script_value : Value.t; (* the value scripted adversaries claim *)
  readers : int list; (* pids running a client read program *)
  reads : int; (* operations per reader *)
  writes : int; (* writer operations (testorset: SETs) *)
  audit : bool; (* stream every run through trace + auditor *)
}

exception Property_violated of string

let violated fmt = Printf.ksprintf (fun m -> raise (Property_violated m)) fmt

let note (c : config) : string =
  Printf.sprintf "%s n=%d f=%d byz=[%s]%s readers=[%s] reads=%d writes=%d"
    (Diff.proto_name c.model) c.n c.f
    (String.concat "," (List.map string_of_int c.byzantine))
    (match c.scripts with
    | [] -> ""
    | ss ->
        " scripts="
        ^ String.concat "+"
            (List.map
               (fun (pid, g) ->
                 Printf.sprintf "%d:[%s]" pid
                   (String.concat "," (List.map string_of_int g)))
               ss))
    (String.concat "," (List.map string_of_int c.readers))
    c.reads c.writes

(* The default exploration target: the smallest paper configuration,
   n = 3f + 1 = 4 with one naysaying colluder. *)
let default : config =
  {
    model = Sticky;
    n = 4;
    f = 1;
    byzantine = [ 3 ];
    scripts = [ (3, [ 2; 2; 0 ]) ];
    script_value = "a";
    readers = [ 1 ];
    reads = 1;
    writes = 1;
    audit = false;
  }

(* The deliberately weakened configuration for adversary synthesis:
   two actual colluders against quorums sized for f = 1, so a schedule
   plus a support-then-retract script pair can drive a correct reader
   to ⊥ after another correct read returned the value. *)
let weakened : config =
  {
    default with
    byzantine = [ 2; 3 ];
    scripts = [ (2, [ 2; 2; 2; 0 ]); (3, [ 2; 2; 2; 0 ]) ];
    readers = [ 1 ];
    reads = 2;
  }

(* What [instance] needs before it can build a system: every pid in
   range, every script run by a Byzantine pid, no reader that is the
   writer. *)
let validate (c : config) : (unit, string) result =
  let in_range pid = pid >= 0 && pid < c.n in
  if c.n < 2 then Error "Mcheck: n must be >= 2"
  else if c.f < 0 then Error "Mcheck: f must be >= 0"
  else if not (List.for_all in_range c.byzantine) then
    Error "Mcheck: byzantine pid out of range"
  else if
    not (List.for_all (fun (pid, _) -> List.mem pid c.byzantine) c.scripts)
  then Error "Mcheck: scripted pid must be listed as byzantine"
  else if not (List.for_all (fun pid -> pid > 0 && in_range pid) c.readers)
  then Error "Mcheck: bad reader pid"
  else if c.reads < 0 || c.writes < 0 then
    Error "Mcheck: reads and writes must be >= 0"
  else Ok ()

(* The config as a differential workload. Every reader runs [reads]
   operations: READs on sticky, VERIFY("a") and READ alternately on
   verifiable, TESTs on test-or-set, which is built from a sticky
   register and whose scripts always claim the set bit. *)
let work_of (c : config) : Diff.work =
  let item =
    match c.model with
    | Sticky -> fun _ -> Diff.I_read
    | Verifiable -> fun i -> if i mod 2 = 0 then Diff.I_verify "a" else Diff.I_read
    | Testorset -> fun _ -> Diff.I_test
  in
  {
    Diff.seed = 0;
    proto = c.model;
    n = c.n;
    f = c.f;
    tos_verifiable = false;
    scripts = c.scripts;
    script_value =
      (match c.model with
      | Testorset -> Lnd_testorset.Testorset_core.one
      | Sticky | Verifiable -> c.script_value);
    writes = c.writes;
    programs = List.map (fun pid -> (pid, List.init c.reads item)) c.readers;
  }

(* ---------------- Per-run state shared between make and check -------- *)

type runstate = {
  rs_sys : Diff.system;
  rs_audit : Audit.t option;
  rs_trace : Trace.t option;
}

type instance = {
  cfg : config;
  make : Policy.t -> Sched.t;
  check : Sched.t -> unit;
  last_events : unit -> Obs.event list;
      (* the last run's event trace; empty unless [audit] *)
  last_accesses : unit -> int; (* register accesses in the last run *)
  teardown : unit -> unit; (* detach the Obs sink, if any was installed *)
}

let instance (c : config) : instance =
  (match validate c with Ok () -> () | Error m -> invalid_arg m);
  let w = work_of c in
  let state : runstate option ref = ref None in
  let installed = ref false in
  let fresh policy =
    let sys =
      Diff.system policy
        (Diff.plan w ~scripts:(Diff.genomes w) ~byzantine:c.byzantine
           ~broken:false)
    in
    (* Only the explorer rewinds, so only the systems built here journal
       their steps. An audited system gets a fresh trace and auditor per
       run instead, and its sink would end the journal at the first
       step. *)
    let trace, audit =
      if not c.audit then begin
        Sched.journal sys.Diff.sched;
        (None, None)
      end
      else begin
        let tr = Trace.create () in
        let au =
          Audit.create ~q:(Quorum.make_relaxed ~n:c.n ~f:c.f) ()
        in
        Obs.install (Obs.fanout [ Trace.sink tr; Audit.sink au ]);
        installed := true;
        (Some tr, Some au)
      end
    in
    state := Some { rs_sys = sys; rs_audit = audit; rs_trace = trace };
    sys.Diff.sched
  in
  (* The last run's system comes back as that run left it, under the new
     policy: the explorer rewinds it to the steps the next schedule
     shares. An audited run needs a fresh trace and auditor, and its
     sink has made its system non-rewindable anyway. *)
  let make policy =
    match !state with
    | Some { rs_sys = { Diff.sched; _ }; rs_trace = None; _ }
      when Sched.rewindable sched ->
        Sched.set_choose sched policy;
        sched
    | _ -> fresh policy
  in
  let check _sched =
    match !state with
    | None -> ()
    | Some rs -> (
        (match rs.rs_sys.Diff.verdict () with
        | Ok _ -> ()
        | Error m -> violated "%s" m);
        match rs.rs_audit with
        | None -> ()
        | Some au ->
            let report = Audit.finalize au in
            List.iter
              (fun pid ->
                if rs.rs_sys.Diff.correct.(pid) then
                  violated "auditor blamed correct pid %d" pid)
              (Audit.accused report))
  in
  {
    cfg = c;
    make;
    check;
    last_events =
      (fun () ->
        match !state with
        | Some { rs_trace = Some tr; _ } -> Trace.events tr
        | _ -> []);
    last_accesses =
      (fun () ->
        match !state with
        | None -> 0
        | Some rs ->
            let st = Space.stats rs.rs_sys.Diff.space in
            st.Space.reads + st.Space.writes);
    teardown = (fun () -> if !installed then Obs.uninstall ());
  }

(* ---------------- Exploration entry points ---------------- *)

let explore ?(mode = `Dpor) ?max_steps ?max_runs ?max_preempts (c : config) :
    Explore.result =
  if mode = `Naive && max_preempts <> None then
    invalid_arg "Mcheck.explore: the naive DFS takes no preemption bound";
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      match mode with
      | `Dpor ->
          Explore.dpor ~make:i.make ~check:i.check ?max_steps ?max_runs
            ?max_preempts ~note:(note c) ()
      | `Naive ->
          Explore.exhaustive ~make:i.make ~check:i.check ?max_steps ?max_runs
            ~note:(note c) ())

let swarm ?max_steps ~seeds (c : config) : Explore.result =
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      Explore.swarm ~make:i.make ~check:i.check ?max_steps ~note:(note c)
        ~seeds ())

let replay ?max_steps (c : config) (s : Explore.schedule) :
    (unit, exn) result =
  let i = instance c in
  Fun.protect ~finally:i.teardown (fun () ->
      Explore.replay ~make:i.make ~check:i.check ?max_steps s)
