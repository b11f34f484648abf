(* Driver #2: the OCaml 5 domains backend, wired to the pure cores.

   Executes the same Diff.work workloads as the simulator, but on
   Lnd_runtime.Domains: the processes spread over at most one domain per
   core, atomic register cells, real preemption, and a global atomic
   clock stamping the operation history. The protocol logic is exactly the pure
   Sticky_core / Verifiable_core / Testorset_core / Byz_script_core
   machines the simulator drives — this module only owns register
   allocation and history bookkeeping, so any verdict disagreement
   between the backends indicts the cores (or a driver), not a second
   implementation of the protocol.

   [~broken:true] swaps in deliberately broken cores — the protocol
   programs with their final decision step corrupted (a reader that
   reports a value it never adopted, a verifier that always accepts, a
   tester that returns an impossible bit). The corruption is pure and
   termination-preserving, and the conformance suite uses it to prove
   the checkers actually reject divergent behaviour (green = evidence,
   not vacuity). *)

open Lnd_support
module Domains = Lnd_runtime.Domains
module Dcell = Lnd_runtime.Domains.Dcell
module History = Lnd_history.History
module Spec = Lnd_history.Spec
module S_core = Lnd_sticky.Sticky_core
module V_core = Lnd_verifiable.Verifiable_core
module T_core = Lnd_testorset.Testorset_core
module B_core = Lnd_byz.Byz_script_core
module VSet = Value.Set
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
open Machine

(* The value broken cores claim; never written by any workload, so the
   validity monitors reject it on sight. *)
let broken_value : Value.t = "zzz"

(* Entries land in a per-pid accumulator: each slot is written only by
   the worker domain hosting its pid, and the run's completion latch
   (Domains.run returns only after every worker counted it down under its
   mutex) orders those writes before the merge below reads them. *)
let merge_history (recs : ('op, 'res) History.entry list array) :
    ('op, 'res) History.t =
  { History.entries = List.concat (Array.to_list recs) }

let entry pid op ~inv ~ret res : ('op, 'res) History.entry =
  { History.pid; op; inv; ret = Some (res, ret) }

(* One HELP span per round actually serving askers (the cores mark those
   rounds with Serving/Served notes), mirroring the sim-side protocol
   wrappers; one closure per daemon, since the span id must survive from
   Serving to Served across turns. *)
let help_note () : Machine.note -> unit =
  let sp = ref 0 in
  function
  | Machine.Serving askers ->
      if Obs.enabled () then
        sp :=
          Obs.span_open ~name:"HELP"
            ~arg:(String.concat "," (List.map string_of_int askers))
            ()
  | Machine.Served ->
      if Obs.enabled () then Obs.span_close ~result:"done" ~name:"HELP" !sp

(* The domains backend's allocator for the cores' layouts; Dcell does
   not enforce ownership, so it ignores each register's owner and single
   reader. *)
let dcell : Dcell.t Machine.allocator =
 fun ~name ~owner:_ ?single_reader:_ ~init () -> Dcell.make ~name ~init

let correct_of (w : Diff.work) : bool array =
  let correct = Array.make w.Diff.n true in
  List.iter (fun pid -> correct.(pid) <- false) (Diff.byzantine_pids w);
  correct

let program_of (w : Diff.work) pid : Diff.item list =
  match List.assoc_opt pid w.Diff.programs with Some p -> p | None -> []

let finish_run (type o r) ~correct
    ~(check : correct:(int -> bool) -> (o, r) History.t -> (unit, string) result)
    ~(render : (o, r) History.t -> string)
    (recs : (o, r) History.entry list array) (outcome : (int, string) result) :
    Diff.run =
  let h = merge_history recs in
  let verdict =
    match outcome with
    | Error m -> Error m
    | Ok _ -> check ~correct:(fun pid -> correct.(pid)) h
  in
  {
    Diff.ops = List.length (History.complete_entries h);
    steps = (match outcome with Ok s -> s | Error _ -> 0);
    verdict;
    rendered = render h;
  }

(* ---------------- Sticky ---------------- *)

let run_sticky ~broken (w : Diff.work) : Diff.run =
  let module S = Spec.Sticky_spec in
  let n = w.Diff.n in
  let q = Quorum.make_relaxed ~n ~f:w.Diff.f in
  let cell = S_core.layout ~n dcell in
  let correct = correct_of w in
  let recs : (S.op, S.res) History.entry list array = Array.make n [] in
  let record pid op ~inv ~ret res =
    recs.(pid) <- entry pid op ~inv ~ret res :: recs.(pid)
  in
  let d = Domains.create () in
  let help pid =
    Domains.daemon
      ~label:(Printf.sprintf "help%d" pid)
      ~on_note:(help_note ()) ~cell
      (S_core.help_prog ~n ~q ~pid)
  in
  Domains.add_process d ~pid:0 ~daemons:[ help 0 ]
    (List.init w.Diff.writes (fun i ->
         let v = Diff.value_pool.(i mod Array.length Diff.value_pool) in
         Domains.job ~cell
           ~span:("WRITE", Some v)
           ~render:(fun () -> "done")
           ~finish:(fun ~inv ~ret () -> record 0 (S.Write v) ~inv ~ret S.Done)
           (fun () -> S_core.write_prog ~n ~q v)));
  List.iter
    (fun (pid, genome) ->
      Domains.add_process d ~pid
        ~daemons:
          [
            Domains.daemon
              ~label:(Printf.sprintf "byz%d" pid)
              ~critical:false ~cell
              (B_core.sticky_prog ~n ~pid ~genome:(Array.of_list genome)
                 ~value:w.Diff.script_value);
          ]
        [])
    w.Diff.scripts;
  for pid = 1 to n - 1 do
    if correct.(pid) then begin
      let ck = ref 0 in
      let jobs =
        List.map
          (function
            | Diff.I_read ->
                Domains.job ~cell
                  ~span:("READ", None)
                  ~render:(fun (res, _) ->
                    match res with None -> "\xe2\x8a\xa5" | Some v -> "v:" ^ v)
                  ~finish:(fun ~inv ~ret (res, ck') ->
                    ck := ck';
                    record pid S.Read ~inv ~ret (S.Val res))
                  (fun () ->
                    let prog = S_core.read_prog ~n ~q ~pid ~ck:!ck in
                    if broken then
                      let* _, ck' = prog in
                      ret (Some broken_value, ck')
                    else prog)
            | Diff.I_verify _ | Diff.I_test ->
                invalid_arg "Parallel: sticky program")
          (program_of w pid)
      in
      Domains.add_process d ~pid ~daemons:[ help pid ] jobs
    end
  done;
  finish_run ~correct ~check:Diff.check_sticky_history
    ~render:Diff.render_sticky recs (Domains.run d)

(* ---------------- Verifiable ---------------- *)

let run_verifiable ~broken (w : Diff.work) : Diff.run =
  let module V = Spec.Verifiable_spec in
  let n = w.Diff.n in
  let q = Quorum.make_relaxed ~n ~f:w.Diff.f in
  let cell = V_core.layout ~n dcell in
  let correct = correct_of w in
  let recs : (V.op, V.res) History.entry list array = Array.make n [] in
  let record pid op ~inv ~ret res =
    recs.(pid) <- entry pid op ~inv ~ret res :: recs.(pid)
  in
  let d = Domains.create () in
  let help pid =
    Domains.daemon
      ~label:(Printf.sprintf "help%d" pid)
      ~on_note:(help_note ()) ~cell
      (V_core.help_prog ~n ~q ~pid)
  in
  let written = ref VSet.empty in
  Domains.add_process d ~pid:0 ~daemons:[ help 0 ]
    (List.concat
       (List.init w.Diff.writes (fun i ->
            let v = Diff.value_pool.(i mod Array.length Diff.value_pool) in
            [
              Domains.job ~cell
                ~span:("WRITE", Some v)
                ~render:(fun () -> "done")
                ~finish:(fun ~inv ~ret () ->
                  written := VSet.add v !written;
                  record 0 (V.Write v) ~inv ~ret V.Done)
                (fun () -> V_core.write_prog v);
              Domains.job ~cell
                ~span:("SIGN", Some v)
                ~render:string_of_bool
                ~finish:(fun ~inv ~ret ok ->
                  record 0 (V.Sign v) ~inv ~ret (V.Signed ok))
                (fun () -> V_core.sign_prog ~written:!written v);
            ])));
  List.iter
    (fun (pid, genome) ->
      Domains.add_process d ~pid
        ~daemons:
          [
            Domains.daemon
              ~label:(Printf.sprintf "byz%d" pid)
              ~critical:false ~cell
              (B_core.verifiable_prog ~n ~pid ~genome:(Array.of_list genome)
                 ~value:w.Diff.script_value);
          ]
        [])
    w.Diff.scripts;
  for pid = 1 to n - 1 do
    if correct.(pid) then begin
      let ck = ref 0 in
      let jobs =
        List.map
          (function
            | Diff.I_read ->
                Domains.job ~cell
                  ~span:("READ", None)
                  ~render:(fun v -> "v:" ^ v)
                  ~finish:(fun ~inv ~ret v ->
                    record pid V.Read ~inv ~ret (V.Val v))
                  (fun () ->
                    if broken then
                      let* _ = V_core.read_prog in
                      ret broken_value
                    else V_core.read_prog)
            | Diff.I_verify v ->
                Domains.job ~cell
                  ~span:("VERIFY", Some v)
                  ~render:(fun (ok, _) -> string_of_bool ok)
                  ~finish:(fun ~inv ~ret (ok, ck') ->
                    ck := ck';
                    record pid (V.Verify v) ~inv ~ret (V.Verified ok))
                  (fun () ->
                    let prog = V_core.verify_prog ~n ~q ~pid ~ck:!ck v in
                    if broken then
                      let* _, ck' = prog in
                      ret (true, ck')
                    else prog)
            | Diff.I_test -> invalid_arg "Parallel: verifiable program")
          (program_of w pid)
      in
      Domains.add_process d ~pid ~daemons:[ help pid ] jobs
    end
  done;
  finish_run ~correct ~check:Diff.check_verifiable_history
    ~render:Diff.render_verifiable recs (Domains.run d)

(* ---------------- Test-or-set ---------------- *)

let run_testorset ~broken (w : Diff.work) : Diff.run =
  let module T = Spec.Testorset_spec in
  let n = w.Diff.n in
  let q = Quorum.make_relaxed ~n ~f:w.Diff.f in
  let correct = correct_of w in
  let recs : (T.op, T.res) History.entry list array = Array.make n [] in
  let record pid op ~inv ~ret res =
    recs.(pid) <- entry pid op ~inv ~ret res :: recs.(pid)
  in
  let d = Domains.create () in
  (* Allocate only the half of the composed namespace this construction
     uses; scripted adversaries run against the underlying register's
     own namespace directly. *)
  let cell, help_prog, set_job, test_prog, byz_daemon =
    if w.Diff.tos_verifiable then begin
      let vcell = V_core.layout ~n dcell in
      let cell : T_core.reg -> Dcell.t = function
        | T_core.Vreg r -> vcell r
        | T_core.Sreg _ -> invalid_arg "Parallel: sticky reg in verifiable tos"
      in
      let written = ref VSet.empty in
      let set_job () =
        Domains.job ~cell
          ~span:("SET", None)
          ~render:(fun _ -> "done")
          ~finish:(fun ~inv ~ret (signed, written') ->
            written := written';
            if not signed then failwith "SET: sign failed for correct setter";
            record 0 T.Set ~inv ~ret T.Done)
          (fun () -> T_core.set_verifiable_prog ~written:!written)
      in
      ( cell,
        (fun pid -> T_core.help_verifiable_prog ~n ~q ~pid),
        set_job,
        (fun ~pid ~ck -> T_core.test_verifiable_prog ~n ~q ~pid ~ck),
        fun pid genome ->
          Domains.daemon
            ~label:(Printf.sprintf "byz%d" pid)
            ~critical:false ~cell:vcell
            (B_core.verifiable_prog ~n ~pid ~genome ~value:w.Diff.script_value)
      )
    end
    else begin
      let scell = S_core.layout ~n dcell in
      let cell : T_core.reg -> Dcell.t = function
        | T_core.Sreg r -> scell r
        | T_core.Vreg _ -> invalid_arg "Parallel: verifiable reg in sticky tos"
      in
      let set_job () =
        Domains.job ~cell
          ~span:("SET", None)
          ~render:(fun () -> "done")
          ~finish:(fun ~inv ~ret () -> record 0 T.Set ~inv ~ret T.Done)
          (fun () -> T_core.set_sticky_prog ~n ~q)
      in
      ( cell,
        (fun pid -> T_core.help_sticky_prog ~n ~q ~pid),
        set_job,
        (fun ~pid ~ck -> T_core.test_sticky_prog ~n ~q ~pid ~ck),
        fun pid genome ->
          Domains.daemon
            ~label:(Printf.sprintf "byz%d" pid)
            ~critical:false ~cell:scell
            (B_core.sticky_prog ~n ~pid ~genome ~value:w.Diff.script_value) )
    end
  in
  let help pid =
    Domains.daemon
      ~label:(Printf.sprintf "help%d" pid)
      ~on_note:(help_note ()) ~cell (help_prog pid)
  in
  Domains.add_process d ~pid:0 ~daemons:[ help 0 ]
    (List.init w.Diff.writes (fun _ -> set_job ()));
  List.iter
    (fun (pid, genome) ->
      Domains.add_process d ~pid
        ~daemons:[ byz_daemon pid (Array.of_list genome) ]
        [])
    w.Diff.scripts;
  for pid = 1 to n - 1 do
    if correct.(pid) then begin
      let ck = ref 0 in
      let jobs =
        List.map
          (function
            | Diff.I_test ->
                Domains.job ~cell
                  ~span:("TEST", None)
                  ~render:(fun (bit, _) -> string_of_int bit)
                  ~finish:(fun ~inv ~ret (bit, ck') ->
                    ck := ck';
                    record pid T.Test ~inv ~ret (T.Bit bit))
                  (fun () ->
                    let prog = test_prog ~pid ~ck:!ck in
                    if broken then
                      (* bit 2 is outside the spec's alphabet: no
                         linearization can ever produce it *)
                      let* _, ck' = prog in
                      ret (2, ck')
                    else prog)
            | Diff.I_read | Diff.I_verify _ ->
                invalid_arg "Parallel: testorset program")
          (program_of w pid)
      in
      Domains.add_process d ~pid ~daemons:[ help pid ] jobs
    end
  done;
  finish_run ~correct ~check:Diff.check_testorset_history
    ~render:Diff.render_testorset recs (Domains.run d)

(* ---------------- Entry point ---------------- *)

let run ?(broken = false) (w : Diff.work) : Diff.run =
  match w.Diff.proto with
  | Diff.Sticky -> run_sticky ~broken w
  | Diff.Verifiable -> run_verifiable ~broken w
  | Diff.Testorset -> run_testorset ~broken w

(* Run with a per-domain arena sink installed: every domain records into
   its own preallocated buffer, the arenas merge on the run's unique
   fetch-and-add stamps, and the merged trace folds — through
   Trace_replay — into a second, independently derived history judged by
   the same checkers as the direct one. Operation spans bracket the
   recorded [inv, ret] intervals, so the trace verdict must agree
   whenever the direct verdict is Ok. *)
let run_traced ?(broken = false) ?(keep = Diff.parity_keep) (w : Diff.work) :
    Diff.run * Diff.trace_info =
  let tr = Trace.create ~keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> run ~broken w) in
  Trace.finish tr;
  (r, Diff.fold_trace w tr)

let line ?broken (w : Diff.work) : string =
  let r = run ?broken w in
  Printf.sprintf "%s | %s ops=%d steps=%d | %s" (Diff.describe w)
    (match r.Diff.verdict with Ok () -> "ok" | Error m -> "FAIL(" ^ m ^ ")")
    r.Diff.ops r.Diff.steps r.Diff.rendered
