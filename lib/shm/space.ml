(* The register space of one simulated system.

   Allocation records ownership; [read]/[write] enforce the model's only
   restriction on Byzantine processes: nobody — Byzantine or not — can
   access the write port of a register it does not own, and SWSR registers
   are readable only by their designated reader. Access counters feed the
   cost tables of the benchmark harness; each individual access goes to
   the Obs stream as a [Shm_access] event, the one record of them. *)

open Lnd_support
module Obs = Lnd_obs.Obs

exception Permission_violation of { pid : int; reg : string; op : string }

type t = {
  n : int; (* number of processes; pids are 0 .. n-1 *)
  mutable regs : Register.t list; (* most recent first *)
  mutable next_id : int;
  mutable total_reads : int;
  mutable total_writes : int;
  reads_by : int array; (* per-pid counters *)
  writes_by : int array;
}

let create ~n =
  if n < 1 then invalid_arg "Space.create: n must be >= 1";
  {
    n;
    regs = [];
    next_id = 0;
    total_reads = 0;
    total_writes = 0;
    reads_by = Array.make n 0;
    writes_by = Array.make n 0;
  }

let n t = t.n

let alloc t ~name ~owner ?single_reader ~init () : Register.t =
  if owner < 0 || owner >= t.n then invalid_arg "Space.alloc: bad owner";
  let readability =
    match single_reader with
    | None -> Register.Any_reader
    | Some p -> Register.Single_reader p
  in
  let r =
    { Register.id = t.next_id; name; owner; readability; init; value = init }
  in
  t.next_id <- t.next_id + 1;
  t.regs <- r :: t.regs;
  r

let read t ~by (r : Register.t) : Univ.t =
  if not (Register.may_read r ~by) then
    raise (Permission_violation { pid = by; reg = r.name; op = "read" });
  t.total_reads <- t.total_reads + 1;
  t.reads_by.(by) <- t.reads_by.(by) + 1;
  if Obs.enabled () then
    Obs.emit ~pid:by
      (Obs.Shm_access { access = `Read; reg = r.name; value = r.value });
  r.value

let write t ~by (r : Register.t) (v : Univ.t) : unit =
  if not (Register.may_write r ~by) then
    raise (Permission_violation { pid = by; reg = r.name; op = "write" });
  t.total_writes <- t.total_writes + 1;
  t.writes_by.(by) <- t.writes_by.(by) + 1;
  if Obs.enabled () then
    Obs.emit ~pid:by (Obs.Shm_access { access = `Write; reg = r.name; value = v });
  r.value <- v

(* Undo the latest read by [by], or its latest write of [r] (putting
   back [old]): the counters and the register return to where they were
   before that access. For rewinding a scheduler's journal, newest
   access first. *)
let unread t ~by : unit =
  t.total_reads <- t.total_reads - 1;
  t.reads_by.(by) <- t.reads_by.(by) - 1

let unwrite t ~by (r : Register.t) ~(old : Univ.t) : unit =
  t.total_writes <- t.total_writes - 1;
  t.writes_by.(by) <- t.writes_by.(by) - 1;
  r.value <- old

(* Registers owned by [pid]; the "reset" adversary of Theorem 23 rewrites
   each of these back to its initial value (through ordinary writes). *)
let owned t ~pid = List.filter (fun (r : Register.t) -> r.owner = pid) t.regs

type stats = { reads : int; writes : int }

let stats t = { reads = t.total_reads; writes = t.total_writes }

let stats_of_pid t pid = { reads = t.reads_by.(pid); writes = t.writes_by.(pid) }

let diff ~before ~after =
  { reads = after.reads - before.reads; writes = after.writes - before.writes }

let pp_stats fmt { reads; writes } =
  Format.fprintf fmt "%d reads, %d writes" reads writes
