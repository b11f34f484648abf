(* A liveness watchdog over the scheduler's logical clock.

   Harnesses arm an entry per pending operation (a WRITE, a READ, a
   broadcast wait) with a logical-clock deadline; a silent hang — a
   fiber that never finishes because the message it is waiting for will
   never arrive — then surfaces as a diagnosable [stalled] entry naming
   the responsible fiber and operation, instead of as an opaque
   step-budget exhaustion.

   The watchdog is completely passive: it performs no scheduler effects,
   draws no randomness, and never perturbs the run. [stalled] is a pure
   function of (entries, fiber states, clock), so driving a run with
   [Sched.run ~until:(fun _ -> Watchdog.stalled w <> [])] keeps the
   execution trace byte-identical to an unwatched run that does not
   stall. *)

type entry = {
  wd_fiber : Sched.fiber;
  wd_op : string;
  mutable wd_deadline : int; (* logical-clock deadline *)
}

type t = { sched : Sched.t; mutable entries : entry list }

let create sched = { sched; entries = [] }

let arm t ~fiber ~op ~timeout =
  let e = { wd_fiber = fiber; wd_op = op; wd_deadline = Sched.clock t.sched + timeout } in
  t.entries <- e :: t.entries;
  e

let touch t e ~timeout = e.wd_deadline <- Sched.clock t.sched + timeout

let live (e : entry) =
  match e.wd_fiber.Sched.state with
  | Sched.Finished _ -> false
  | Sched.Ready _ -> true

let overdue clock e = live e && clock > e.wd_deadline

let rec any_overdue clock = function
  | [] -> false
  | e :: rest -> overdue clock e || any_overdue clock rest

(* Harnesses poll this on every scheduler step, so the common answer,
   nothing stalled, allocates nothing. *)
let stalled t =
  let clock = Sched.clock t.sched in
  if any_overdue clock t.entries then
    List.filter (overdue clock) (List.rev t.entries)
  else []

(* Publish the current stall diagnosis as typed events, one per stalled
   entry, each attributed to the stalled fiber's pid. Stalls land in
   traces as evidence of SLOWNESS — the accountability auditor never
   turns one into an accusation, which is exactly the paper's asymmetry:
   a process can be late without lying. Emission is observation-only
   (no scheduler effects), so runs stay byte-identical under the Null
   sink. *)
let emit_stalled t =
  if Lnd_obs.Obs.enabled () then
    List.iter
      (fun e ->
        Lnd_obs.Obs.emit ~pid:e.wd_fiber.Sched.pid
          (Lnd_obs.Obs.Watchdog_stall
             {
               fid = e.wd_fiber.Sched.fid;
               fname = e.wd_fiber.Sched.fname;
               op = e.wd_op;
               deadline = e.wd_deadline;
             }))
      (stalled t)

let pp_entry fmt e =
  Format.fprintf fmt "%s (fiber %s, pid %d, deadline %d)" e.wd_op
    e.wd_fiber.Sched.fname e.wd_fiber.Sched.pid e.wd_deadline

let pp_stalled fmt es =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
    pp_entry fmt es
