type access = [ `Read | `Write ]

type verdict = Deliver | Dropped | Cut | Dup | Delayed of int

type claim =
  | Cl_init of { sender : int; seq : int }
  | Cl_vouch of { sender : int; seq : int; tag : string }
  | Cl_wreq of { reg : int; ts : int }
  | Cl_wecho of { reg : int; ts : int }
  | Cl_wack of { reg : int; ts : int }
  | Cl_rrep of { reg : int; rid : int; ts : int }
  | Cl_state of { reg : int; ts : int }
  | Cl_garbage

type kind =
  | Span_open of { name : string; arg : string option; parent : int }
  | Span_close of { name : string; result : string option; aborted : bool }
  | Sched_spawn of { fid : int; fname : string; daemon : bool }
  | Sched_switch of { fid : int; fname : string }
  | Sched_exit of { fid : int; fname : string; failed : bool }
  | Shm_access of { access : access; reg : string; value : Lnd_support.Univ.t }
  | Net_verdict of { dst : int; verdict : verdict }
  | Link_data of { dst : int; seq : int; retrans : bool }
  | Link_ack of { dst : int; seq : int }
  | Link_deliver of { src : int; seq : int }
  | Link_dedup of { src : int; seq : int }
  | Link_stale of { src : int }
  | Link_epoch of { src : int; epoch : int }
  | Reg_round of { reg : int; round : string; rid : int }
  | Reg_reply of { reg : int; rid : int; src : int; count : int }
  | Reg_quorum of { reg : int; rid : int; count : int }
  | Wal_append of { bytes : int }
  | Wal_sync of { records : int; latency : int }
  | Wal_snapshot of { records : int }
  | Wal_recover of { records : int }
  | Disk_crash of { torn : int }
  | Claim of { src : int; claim : claim; fp : string }
  | Reg_write_ann of { reg : int; ts : int; fp : string }
  | Reg_alloc of { reg : int; owner : int; fp : string }
  | Link_incarnation of { epoch : int }
  | Watchdog_stall of { fid : int; fname : string; op : string; deadline : int }
  | Explore_run of { mode : string; idx : int; depth : int; reason : string }
  | Explore_stats of {
      mode : string;
      runs : int;
      pruned : int;
      blocked : int;
      races : int;
      exhausted : bool;
    }

type event = { at : int; pid : int; span : int; kind : kind }
type sink = { emit : event -> unit }

let fanout sinks =
  { emit = (fun e -> List.iter (fun s -> s.emit e) sinks) }

(* The sink and clock hook are installed once, from the driving domain,
   before any worker domain runs a body, and then read from every domain —
   so both live in Atomic cells (publication is a release/acquire
   pair, never a data race). *)
let sink_r : sink option Atomic.t = Atomic.make None
let clock_r : (unit -> int) Atomic.t = Atomic.make (fun () -> 0)

(* Span ids must be unique across domains: a single fetch-and-add
   counter. On one domain this yields the same 1, 2, 3, ... sequence the
   pre-domains seam produced, so sim traces are unchanged. *)
let next_span = Atomic.make 1

(* Everything that follows the control flow of one domain — the ambient
   span/pid and the parent links of the spans that domain opened — is
   per-domain state in DLS, so domains never race on each other's span
   chains. Within a domain the ambient still follows the fiber, not the
   call stack: Sched saves and restores it at every switch. *)
type ctx = {
  mutable ambient_span : int;
  mutable ambient_pid : int;
  parents : (int, int) Hashtbl.t;
      (* Parent of each still-open span this domain opened, so
         [span_close] can restore the ambient chain even when closes
         arrive out of stack order (each fiber closes its own spans, but
         fibers interleave). *)
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      { ambient_span = 0; ambient_pid = -1; parents = Hashtbl.create 64 })

let ctx () = Domain.DLS.get ctx_key

let reset_domain () =
  let c = ctx () in
  c.ambient_span <- 0;
  c.ambient_pid <- -1;
  Hashtbl.reset c.parents

let enabled () = Atomic.get sink_r <> None

let install ?clock s =
  Atomic.set sink_r (Some s);
  (match clock with Some c -> Atomic.set clock_r c | None -> ());
  Atomic.set next_span 1;
  reset_domain ()

let uninstall () =
  Atomic.set sink_r None;
  Atomic.set clock_r (fun () -> 0);
  Atomic.set next_span 1;
  reset_domain ()

let set_clock c = Atomic.set clock_r c
let now () = (Atomic.get clock_r) ()

let emit ?pid kind =
  match Atomic.get sink_r with
  | None -> ()
  | Some s ->
      let c = ctx () in
      let pid = match pid with Some p -> p | None -> c.ambient_pid in
      s.emit { at = now (); pid; span = c.ambient_span; kind }

let span_open ?pid ~name ?arg () =
  match Atomic.get sink_r with
  | None -> 0
  | Some s ->
      let c = ctx () in
      let id = Atomic.fetch_and_add next_span 1 in
      let parent = c.ambient_span in
      Hashtbl.replace c.parents id parent;
      let pid = match pid with Some p -> p | None -> c.ambient_pid in
      s.emit
        { at = now (); pid; span = id; kind = Span_open { name; arg; parent } };
      c.ambient_span <- id;
      id

let span_close ?pid ?result ~name id =
  match Atomic.get sink_r with
  | None -> ()
  | Some s ->
      if id <> 0 then begin
        let c = ctx () in
        let parent = try Hashtbl.find c.parents id with Not_found -> 0 in
        Hashtbl.remove c.parents id;
        let pid = match pid with Some p -> p | None -> c.ambient_pid in
        s.emit
          { at = now (); pid; span = id;
            kind = Span_close { name; result; aborted = false } };
        c.ambient_span <- parent
      end

let ambient () = (ctx ()).ambient_span

let set_ambient ~span ~pid =
  let c = ctx () in
  c.ambient_span <- span;
  c.ambient_pid <- pid
