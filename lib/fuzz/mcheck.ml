(* Model-checking harness: paper configurations as explorable systems.

   Mcheck turns one declarative [config] — protocol, (n, f), which pids
   are actually Byzantine (possibly more than the declared f: the
   deliberately weakened configurations), their Byz_script genomes and
   the correct clients' programs — into the (make, check) pair the
   Lnd_runtime.Explore engines drive. [make] builds a fresh
   deterministic system for every explored schedule; [check] runs at
   quiescence and raises [Property_violated] when the run breaks a
   paper property:

   - no correct fiber crashed;
   - the observational monitors (uniqueness/validity for sticky,
     relay/validity/unforgeability for verifiable);
   - stickiness: a completed correct read that returned v ≠ ⊥ (or a
     TEST that returned 1) is never followed by a correct read
     returning ⊥ (resp. 0) — Observation 18 / Definition 20;
   - Byzantine linearizability of the recorded history (Theorems 14,
     19, Observation 25) via the exhaustive Lnd_history.Byzlin checker;
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
module History = Lnd_history.History
module Monitors = Lnd_history.Monitors
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Audit = Lnd_audit.Audit
module Byz_script = Lnd_byz.Byz_script

type model = Verifiable | Sticky | Testorset

let model_name = function
  | Verifiable -> "verifiable"
  | Sticky -> "sticky"
  | Testorset -> "testorset"

let model_of_name = function
  | "verifiable" -> Some Verifiable
  | "sticky" -> Some Sticky
  | "testorset" -> Some Testorset
  | _ -> None

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
    (model_name c.model) c.n c.f
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

let value_pool = [| "a"; "b"; "c" |]

(* ---------------- Per-run state shared between make and check -------- *)

type runstate = {
  rs_correct : bool array;
  rs_sched : Sched.t;
  rs_failures : unit -> (Sched.fiber * exn) list;
  rs_check_protocol : unit -> unit; (* monitors + stickiness + byzlin *)
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

(* Cap for the exhaustive linearizability search (cf. Fuzz.byzlin_op_cap);
   mcheck client programs stay far below it. *)
let byzlin_op_cap = 14

(* Stickiness over the correct sub-history: [vret e] maps an entry to
   [Some v-or-bottom] for read-like completions. *)
let check_sticky_order ~what entries ~(vret : 'e -> Value.t option option)
    ~(precedes : 'e -> 'e -> bool) =
  List.iter
    (fun a ->
      match vret a with
      | Some (Some v) ->
          List.iter
            (fun b ->
              match vret b with
              | Some None when precedes a b ->
                  violated "%s violated: a correct read returned %s, a later one ⊥"
                    what v
              | _ -> ())
            entries
      | _ -> ())
    entries

let make_sticky (c : config) (policy : Policy.t) =
  let module Sys = Lnd_sticky.System in
  let t = Sys.make ~policy ~byzantine:c.byzantine ~n:c.n ~f:c.f () in
  List.iter
    (fun (pid, genome) ->
      ignore
        (Byz_script.spawn_sticky t.sched t.regs
           (Byz_script.make ~pid ~genome ~value:c.script_value)))
    c.scripts;
  if t.correct.(0) then
    ignore
      (Sys.client t ~pid:0 ~name:"writer" (fun () ->
           for i = 0 to c.writes - 1 do
             Sys.op_write t value_pool.(i mod Array.length value_pool)
           done));
  List.iter
    (fun pid ->
      if pid <= 0 || pid >= c.n then invalid_arg "Mcheck: bad reader pid";
      if t.correct.(pid) then
        ignore
          (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
               for _ = 1 to c.reads do
                 ignore (Sys.op_read t ~pid)
               done)))
    c.readers;
  let check_protocol () =
    let correct pid = t.correct.(pid) in
    (match
       Monitors.check_all
         (Monitors.uniqueness ~correct t.history
         @ Monitors.sticky_validity ~correct ~writer:0 t.history)
     with
    | Ok () -> ()
    | Error msg -> violated "%s" msg);
    let module S = Lnd_history.Spec.Sticky_spec in
    check_sticky_order ~what:"stickiness"
      (History.complete_entries (History.restrict t.history ~correct))
      ~vret:(fun (e : (S.op, S.res) History.entry) ->
        match (e.op, e.ret) with
        | S.Read, Some (S.Val v, _) -> Some v
        | _ -> None)
      ~precedes:History.precedes;
    if List.length (History.complete_entries t.history) <= byzlin_op_cap then
      if
        not
          (try Sys.byz_linearizable t
           with Lnd_history.Spec.Search_too_large -> true)
      then violated "history not Byzantine linearizable (sticky)"
  in
  (t.space, t.sched, t.correct, check_protocol)

let make_verifiable (c : config) (policy : Policy.t) =
  let module Sys = Lnd_verifiable.System in
  let t = Sys.make ~policy ~byzantine:c.byzantine ~n:c.n ~f:c.f () in
  List.iter
    (fun (pid, genome) ->
      ignore
        (Byz_script.spawn_verifiable t.sched t.regs
           (Byz_script.make ~pid ~genome ~value:c.script_value)))
    c.scripts;
  if t.correct.(0) then
    ignore
      (Sys.client t ~pid:0 ~name:"writer" (fun () ->
           for i = 0 to c.writes - 1 do
             let v = value_pool.(i mod Array.length value_pool) in
             Sys.op_write t v;
             ignore (Sys.op_sign t v)
           done));
  List.iter
    (fun pid ->
      if pid <= 0 || pid >= c.n then invalid_arg "Mcheck: bad reader pid";
      if t.correct.(pid) then
        ignore
          (Sys.client t ~pid ~name:(Printf.sprintf "r%d" pid) (fun () ->
               for i = 1 to c.reads do
                 if i mod 2 = 1 then ignore (Sys.op_verify t ~pid "a")
                 else ignore (Sys.op_read t ~pid)
               done)))
    c.readers;
  let check_protocol () =
    let correct pid = t.correct.(pid) in
    (match
       Monitors.check_all
         (Monitors.relay ~correct t.history
         @ Monitors.validity ~correct t.history
         @ Monitors.unforgeability ~correct ~writer:0 t.history)
     with
    | Ok () -> ()
    | Error msg -> violated "%s" msg);
    if List.length (History.complete_entries t.history) <= byzlin_op_cap then
      if
        not
          (try Sys.byz_linearizable t
           with Lnd_history.Spec.Search_too_large -> true)
      then violated "history not Byzantine linearizable (verifiable)"
  in
  (t.space, t.sched, t.correct, check_protocol)

let make_testorset (c : config) (policy : Policy.t) =
  let module Sys = Lnd_testorset.Testorset in
  let t =
    Sys.make ~policy ~byzantine:c.byzantine ~impl:Sys.Sticky_based ~n:c.n
      ~f:c.f ()
  in
  (match t.backend with
  | Sys.B_sticky (regs, _, _) ->
      List.iter
        (fun (pid, genome) ->
          ignore
            (Byz_script.spawn_sticky t.sched regs
               (Byz_script.make ~pid ~genome ~value:"1")))
        c.scripts
  | Sys.B_verifiable (regs, _, _) ->
      List.iter
        (fun (pid, genome) ->
          ignore
            (Byz_script.spawn_verifiable t.sched regs
               (Byz_script.make ~pid ~genome ~value:"1")))
        c.scripts);
  if t.correct.(0) then
    ignore
      (Sys.client t ~pid:0 ~name:"setter" (fun () ->
           for _ = 1 to c.writes do
             Sys.op_set t
           done));
  List.iter
    (fun pid ->
      if pid <= 0 || pid >= c.n then invalid_arg "Mcheck: bad reader pid";
      if t.correct.(pid) then
        ignore
          (Sys.client t ~pid ~name:(Printf.sprintf "t%d" pid) (fun () ->
               for _ = 1 to c.reads do
                 ignore (Sys.op_test t ~pid)
               done)))
    c.readers;
  let check_protocol () =
    let correct pid = t.correct.(pid) in
    let module T = Lnd_history.Spec.Testorset_spec in
    check_sticky_order ~what:"test-or-set stickiness"
      (History.complete_entries (History.restrict t.history ~correct))
      ~vret:(fun (e : (T.op, T.res) History.entry) ->
        match (e.op, e.ret) with
        | T.Test, Some (T.Bit 1, _) -> Some (Some "1")
        | T.Test, Some (T.Bit _, _) -> Some None
        | _ -> None)
      ~precedes:History.precedes;
    if List.length (History.complete_entries t.history) <= byzlin_op_cap then
      if
        not
          (try Sys.byz_linearizable t
           with Lnd_history.Spec.Search_too_large -> true)
      then violated "history not Byzantine linearizable (test-or-set)"
  in
  (t.space, t.sched, t.correct, check_protocol)

let instance (c : config) : instance =
  if c.n < 2 then invalid_arg "Mcheck: n must be >= 2";
  List.iter
    (fun (pid, _) ->
      if not (List.mem pid c.byzantine) then
        invalid_arg "Mcheck: scripted pid must be listed as byzantine")
    c.scripts;
  let state : runstate option ref = ref None in
  let last_space : Space.t option ref = ref None in
  let installed = ref false in
  let make policy =
    let space, sched, correct, check_protocol =
      match c.model with
      | Sticky -> make_sticky c policy
      | Verifiable -> make_verifiable c policy
      | Testorset -> make_testorset c policy
    in
    last_space := Some space;
    let trace, audit =
      if not c.audit then (None, None)
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
    state :=
      Some
        {
          rs_correct = correct;
          rs_sched = sched;
          rs_failures = (fun () -> Sched.failures sched);
          rs_check_protocol = check_protocol;
          rs_audit = audit;
          rs_trace = trace;
        };
    sched
  in
  let check _sched =
    match !state with
    | None -> ()
    | Some rs ->
        (match
           List.filter
             (fun ((fb : Sched.fiber), _) -> rs.rs_correct.(fb.Sched.pid))
             (rs.rs_failures ())
         with
        | (fb, e) :: _ ->
            violated "correct fiber %s failed: %s" fb.Sched.fname
              (Printexc.to_string e)
        | [] -> ());
        rs.rs_check_protocol ();
        (match rs.rs_audit with
        | None -> ()
        | Some au ->
            let report = Audit.finalize au in
            List.iter
              (fun pid ->
                if rs.rs_correct.(pid) then
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
        match !last_space with
        | None -> 0
        | Some space ->
            let st = Space.stats space in
            st.Space.reads + st.Space.writes);
    teardown = (fun () -> if !installed then Obs.uninstall ());
  }

(* ---------------- Exploration entry points ---------------- *)

let explore ?(mode = `Dpor) ?max_steps ?max_runs ?max_preempts (c : config) :
    Explore.result =
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
