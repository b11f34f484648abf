(* Driver #2: the OCaml 5 domains backend.

   Runs a Diff.work's plan on Lnd_runtime.Domains: the processes spread
   over at most one domain per core, the calling domain hosting the
   first group of them, atomic register cells that check ownership as
   the sim's Space does, real preemption, and a global atomic clock
   stamping the operation history.
   The plan is the one the simulator runs — the same pure cores, the
   same jobs, the same judge — so this module only allocates the layout
   in Dcells, groups the plan by pid into Domains processes and folds
   the finished jobs into a history. Any verdict disagreement between
   the backends indicts the cores (or a driver), not a second
   implementation of the protocol. A session formats nothing it does
   not print: daemon labels are formatted by Domains only for a stall or
   failure message, and the history is judged, never rendered. *)

module Domains = Lnd_runtime.Domains
module Dcell = Lnd_runtime.Domains.Dcell
module Drive = Lnd_runtime.Drive
module History = Lnd_history.History
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace

(* One Domains process per pid that has a daemon or a job, gathered in
   one pass over the plan. Entries and carries land in per-pid slots:
   each slot is written only by the domain hosting its pid, and the run's
   completion latch (Domains.run returns only after every worker counted
   it down under its mutex) orders the workers' writes before the merge
   below reads them. *)
let run ?(broken = false) (w : Diff.work) : Diff.run =
  let (Diff.Plan p) =
    Diff.plan w ~scripts:(Diff.genomes w) ~byzantine:(Diff.byzantine_pids w)
      ~broken
  in
  let n = Array.length p.Diff.correct in
  let cell = p.Diff.layout Dcell.make in
  let daemons = Array.make n [] and jobs = Array.make n [] in
  let recs = Array.make n [] and carries = Array.make n Diff.carry0 in
  List.iter
    (fun (pid, prog) ->
      daemons.(pid) <-
        daemons.(pid)
        @ [
            Domains.daemon ~label:"help" ~on_note:(Drive.help_note ()) ~cell
              prog;
          ])
    p.Diff.helps;
  List.iter
    (fun (pid, _, prog) ->
      daemons.(pid) <-
        daemons.(pid)
        @ [
            Domains.daemon ~label:"byz" ~critical:false ~cell prog;
          ])
    p.Diff.scripts;
  let job pid (Diff.Job j) =
    Domains.job ~cell ~span:j.span ~render:j.text
      ~finish:(fun ~inv ~ret a ->
        let c, res = j.result carries.(pid) a in
        carries.(pid) <- c;
        recs.(pid) <-
          { History.pid; op = j.op; inv; ret = Some (res, ret) } :: recs.(pid))
      (fun () -> j.prog carries.(pid))
  in
  List.iter
    (fun (pid, js) -> jobs.(pid) <- jobs.(pid) @ List.map (job pid) js)
    p.Diff.clients;
  let d = Domains.create () in
  for pid = 0 to n - 1 do
    match (daemons.(pid), jobs.(pid)) with
    | [], [] -> ()
    | ds, js -> Domains.add_process d ~pid ~daemons:ds js
  done;
  let outcome = Domains.run d in
  let h = { History.entries = List.concat (Array.to_list recs) } in
  {
    Diff.ops = List.length (History.complete_entries h);
    steps = (match outcome with Ok s -> s | Error _ -> 0);
    verdict =
      (match outcome with
      | Error m -> Error m
      | Ok _ ->
          Result.map ignore
            (p.Diff.judge ~correct:(fun pid -> p.Diff.correct.(pid)) h));
  }

(* Run with a per-domain arena sink installed: every domain records into
   its own preallocated buffer, the arenas merge on the run's unique
   fetch-and-add stamps, and the merged trace folds — through
   Trace_replay — into a second, independently derived history judged by
   the same checkers as the direct one. Operation spans bracket the
   recorded [inv, ret] intervals, so the trace verdict must agree
   whenever the direct verdict is Ok. *)
let run_traced ?(broken = false) (w : Diff.work) : Diff.run * Diff.trace_info =
  let tr = Trace.create ~keep:Diff.parity_keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> run ~broken w) in
  Trace.finish tr;
  (r, Diff.fold_trace w tr)
