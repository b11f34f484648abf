(* The register space of one simulated system.

   Allocation records ownership; [read]/[write] enforce the model's only
   restriction on Byzantine processes: nobody — Byzantine or not — can
   access the write port of a register it does not own, and SWSR registers
   are readable only by their designated reader. Access counters feed the
   cost tables of the benchmark harness. *)

open Lnd_support
module Obs = Lnd_obs.Obs

exception Permission_violation of { pid : int; reg : string; op : string }

(* One recorded access, for the optional execution trace. *)
type access = {
  acc_seq : int; (* global access sequence number *)
  acc_pid : int;
  acc_kind : [ `Read | `Write ];
  acc_reg : string;
  acc_value : Univ.t; (* value read, or value written *)
}

let pp_access fmt a =
  Format.fprintf fmt "#%d p%d %s %s = %a" a.acc_seq a.acc_pid
    (match a.acc_kind with `Read -> "reads " | `Write -> "writes")
    a.acc_reg Univ.pp a.acc_value

type t = {
  n : int; (* number of processes; pids are 0 .. n-1 *)
  mutable regs : Register.t list; (* most recent first *)
  mutable next_id : int;
  mutable total_reads : int;
  mutable total_writes : int;
  reads_by : int array; (* per-pid counters *)
  writes_by : int array;
  (* Optional bounded execution trace (a ring of the most recent
     accesses); enable with [set_trace]. *)
  mutable trace : access array option;
  mutable trace_next : int;
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
    trace = None;
    trace_next = 0;
  }

(* Keep the last [capacity] accesses. *)
let set_trace t ~capacity =
  if capacity <= 0 then invalid_arg "Space.set_trace: capacity must be > 0";
  t.trace <-
    Some
      (Array.make capacity
         { acc_seq = -1; acc_pid = -1; acc_kind = `Read; acc_reg = "";
           acc_value = Univ.inj Univ.unit () });
  t.trace_next <- 0

let record_access t ~pid ~kind ~(reg : Register.t) ~value =
  match t.trace with
  | None -> ()
  | Some ring ->
      let seq = t.trace_next in
      ring.(seq mod Array.length ring) <-
        { acc_seq = seq; acc_pid = pid; acc_kind = kind;
          acc_reg = reg.Register.name; acc_value = value };
      t.trace_next <- seq + 1

(* The recorded accesses, oldest first. *)
let trace t : access list =
  match t.trace with
  | None -> []
  | Some ring ->
      let len = Array.length ring in
      let count = min t.trace_next len in
      List.init count (fun i ->
          ring.((t.trace_next - count + i) mod len))

let n t = t.n

let alloc t ~name ~owner ?single_reader ~init () : Register.t =
  if owner < 0 || owner >= t.n then invalid_arg "Space.alloc: bad owner";
  let readability =
    match single_reader with
    | None -> Register.Any_reader
    | Some p -> Register.Single_reader p
  in
  let r =
    {
      Register.id = t.next_id;
      name;
      owner;
      readability;
      init;
      value = init;
      read_count = 0;
      write_count = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.regs <- r :: t.regs;
  r

let read t ~by (r : Register.t) : Univ.t =
  if not (Register.may_read r ~by) then
    raise (Permission_violation { pid = by; reg = r.name; op = "read" });
  r.read_count <- r.read_count + 1;
  t.total_reads <- t.total_reads + 1;
  t.reads_by.(by) <- t.reads_by.(by) + 1;
  record_access t ~pid:by ~kind:`Read ~reg:r ~value:r.value;
  if Obs.enabled () then
    Obs.emit ~pid:by
      (Obs.Shm_access { access = `Read; reg = r.name; value = r.value });
  r.value

let write t ~by (r : Register.t) (v : Univ.t) : unit =
  if not (Register.may_write r ~by) then
    raise (Permission_violation { pid = by; reg = r.name; op = "write" });
  r.write_count <- r.write_count + 1;
  t.total_writes <- t.total_writes + 1;
  t.writes_by.(by) <- t.writes_by.(by) + 1;
  record_access t ~pid:by ~kind:`Write ~reg:r ~value:v;
  if Obs.enabled () then
    Obs.emit ~pid:by (Obs.Shm_access { access = `Write; reg = r.name; value = v });
  r.value <- v

(* Undo the latest read of [r] by [by], or its latest write (putting
   back [old]): the counters, the register and the access trace return
   to where they were before that access. For rewinding a scheduler's
   journal, newest access first. *)
let unrecord t =
  match t.trace with
  | None -> ()
  | Some _ -> t.trace_next <- t.trace_next - 1

let unread t ~by (r : Register.t) : unit =
  r.read_count <- r.read_count - 1;
  t.total_reads <- t.total_reads - 1;
  t.reads_by.(by) <- t.reads_by.(by) - 1;
  unrecord t

let unwrite t ~by (r : Register.t) ~(old : Univ.t) : unit =
  r.write_count <- r.write_count - 1;
  t.total_writes <- t.total_writes - 1;
  t.writes_by.(by) <- t.writes_by.(by) - 1;
  unrecord t;
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
