(* Driver #2: OCaml 5 domains.

   The same pure Machine programs the simulator drives (Drive.run) are
   executed here with real preemption: shared registers as atomic cells,
   a global atomic logical clock stamping operation invocations/responses
   for the history, and a run's processes spread over at most
   [Domain.recommended_domain_count ()] domains, so busy domains never
   outnumber the cores.

   Grouping: process i in pid order runs on domain i mod g, where g is
   the smaller of the process count and the recommended domain count.
   Within a domain, the machines of every process it hosts — each one's
   current client operation plus its background daemons (help, scripted
   adversaries) — are interleaved cooperatively at their Yield points,
   mirroring the fiber structure of the simulator. The processes are
   asynchronous, so any interleaving of their turns is a legal execution.
   Across domains there is no schedule at all: interleavings are whatever
   the hardware and the OS produce, which is exactly what the differential
   conformance suite wants to confront the cores with.

   Wake-on-write: the simulator's park-on-yield rule (DESIGN §4i), ported
   to real parallelism. Every core's Yield ends a poll pass whose outcome
   depends only on register state, so a machine whose turn ends in a
   yield is parked until some register write happens after that turn
   started; re-running it earlier would recompute the same pass. A domain
   whose machines are all parked spins briefly on the run's write
   version, then blocks on a condition variable until the version moves.

   Termination discipline: client operations ("jobs") run to completion
   in program order; daemons are abandoned once every job in the whole
   run has completed (they are just values — nothing to clean up). A run
   in which every live domain is blocked with no writer left, a per-domain
   step budget running out, or a correct machine raising all end in
   [Error] instead of a hang.

   Ownership: a turn checks every access against the model's rules, as
   the simulator's Space does — only a register's owner writes it, and an
   SWSR register is read only by its single reader and its owner — and
   raises the Space's [Permission_violation] on a breach, which fails a
   correct machine's run and kills a Byzantine one.

   Worker pool: the calling domain hosts the first domain's body and
   each other body runs on a pooled worker domain that outlives the run,
   so a session pays no domain spawn or join. *)

open Lnd_support
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace

(* ---------------- Shared registers ---------------- *)

(* A SWMR atomic register is exactly an [Atomic.t]: reads and writes are
   sequentially consistent and never block, so a cell needs no lock. The
   cell keeps its owner and single reader ([-1] for SWMR) for the
   ownership check in [turn]. *)
module Dcell = struct
  type t = { name : string; owner : int; reader : int; v : Univ.t Atomic.t }

  let make ~name ~owner ?(single_reader = -1) ~init () : t =
    { name; owner; reader = single_reader; v = Atomic.make init }

  let read (c : t) : Univ.t =
    let v = Atomic.get c.v in
    if Obs.enabled () then
      Obs.emit (Obs.Shm_access { access = `Read; reg = c.name; value = v });
    v

  let write (c : t) (u : Univ.t) : unit =
    Atomic.set c.v u;
    if Obs.enabled () then
      Obs.emit (Obs.Shm_access { access = `Write; reg = c.name; value = u })
end

(* ---------------- Logical clock ---------------- *)

let tick (c : int Atomic.t) : int = Atomic.fetch_and_add c 1

(* ---------------- Machines ---------------- *)

(* A job is one client operation: built lazily (its program may depend
   on state left by earlier jobs, e.g. a reader's round counter), and
   stamped with invocation/response times from the global clock. *)
type job =
  | Job : {
      prog : unit -> ('reg, 'a) Machine.prog;
      cell : 'reg -> Dcell.t;
      span : string * string option; (* Obs span name/arg; "" = none *)
      render : ('a -> string) option;
      on_note : Machine.note -> unit;
      finish : inv:int -> ret:int -> 'a -> unit;
    }
      -> job

let job ?(span = ("", None)) ?render ?(on_note = fun _ -> ()) ~cell ~finish
    prog =
  Job { prog; cell; span; render; on_note; finish }

(* A daemon never returns a result; [critical = false] marks machines
   (scripted adversaries) whose failure must not fail the run, matching
   the simulator's treatment of Byzantine fibers. Messages name it by
   its label followed by its process's pid. *)
type daemon =
  | Daemon : {
      label : string;
      critical : bool;
      prog : ('reg, unit) Machine.prog;
      cell : 'reg -> Dcell.t;
      on_note : Machine.note -> unit;
    }
      -> daemon

let daemon ~label ?(critical = true) ?(on_note = fun _ -> ()) ~cell prog =
  Daemon { label; critical; prog; cell; on_note }

(* A machine in flight. [resume] gives the program its next turn starts
   from: the machine's whole program before its first turn, afterwards
   the continuation of the Yield its last turn ended at. [ospan] is the
   machine's ambient Obs span, saved across turns the way Sched saves it
   across fiber switches: jobs start under their operation span, daemons
   at top level, and note callbacks (HELP rounds) may push/pop spans in
   between. [parked] is the write version read when the machine's last
   turn started if that turn ended in a yield, and [-1] otherwise: the
   machine is skipped while the version still equals it. [label] is a
   daemon's label and [""] for a job. [read] and [write] are its
   register accesses ({!accesses}), built with the machine. *)
type runnable =
  | Run : {
      label : string;
      critical : bool;
      mutable resume : unit -> ('reg, 'a) Machine.prog;
      read : 'reg -> Univ.t;
      write : 'reg -> Univ.t -> unit;
      onote : Machine.note -> unit;
      mutable ospan : int;
      fin : 'a -> unit;
      mutable dead : bool;
      mutable parked : int;
    }
      -> runnable

(* A machine's name in stall and failure messages, formatted only for
   them: [p<pid>-op] for a job, the label and the pid for a daemon. *)
let name ~pid (Run m) =
  if m.label = "" then Printf.sprintf "p%d-op" pid
  else Printf.sprintf "%s%d" m.label pid

type proc = { pid : int; jobs : job list; daemons : daemon list }

(* A process as the domain hosting it runs it: the jobs it has not
   started, its current operation, its daemons and its root span. *)
type host = {
  proc : proc;
  mutable queue : job list;
  mutable current : runnable option;
  background : runnable list;
  root : int;
}

(* The wake-on-write state lives in the run, next to its clock:
   - [version] is bumped after every register write, every completed job
     and an abort; writers broadcast [cond] only when [waiters] > 0;
   - under [mu]: [live] counts domains that have not exited, and
     [blocked] holds, for each domain waiting on [cond], the version it
     waits on and each machine it parked, with its pid. An entry
     whose version is no longer current belongs to a domain that was
     woken but has not yet re-taken [mu]; it is not stalled. *)
type t = {
  clock : int Atomic.t;
  step_budget : int;
  mutable procs : proc list; (* newest first; sorted at [run] *)
  version : int Atomic.t;
  waiters : int Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable live : int;
  mutable blocked : (int * (int * runnable) list) list;
}

let default_step_budget = 50_000_000

let create ?(step_budget = default_step_budget) () : t =
  {
    clock = Atomic.make 1;
    step_budget;
    procs = [];
    version = Atomic.make 0;
    waiters = Atomic.make 0;
    mu = Mutex.create ();
    cond = Condition.create ();
    live = 0;
    blocked = [];
  }

let add_process (t : t) ~pid ?(daemons = []) (jobs : job list) : unit =
  if List.exists (fun p -> p.pid = pid) t.procs then
    invalid_arg "Domains.add_process: duplicate pid";
  t.procs <- { pid; jobs; daemons } :: t.procs

exception Abort of string

(* ---------------- The per-domain loop ---------------- *)

(* Move the write version and wake every domain blocked on the old one.
   A blocking domain counts itself in [waiters] before it re-reads the
   version under [mu], and both accesses are sequentially consistent: it
   either sees the new version, or this sees it waiting and broadcasts
   under [mu] — hence after it is inside [Condition.wait]. *)
let bump (t : t) =
  Atomic.incr t.version;
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu
  end

let denied ~pid (c : Dcell.t) op =
  raise (Lnd_shm.Space.Permission_violation { pid; reg = c.name; op })

(* One step against the domain's budget. *)
let count t steps ~pid =
  incr steps;
  if !steps > t.step_budget then
    raise (Abort (Printf.sprintf "p%d: domain step budget exhausted" pid))

(* The register accesses of a machine of [pid] hosted by the domain
   whose steps [steps] counts: each checked against the model's rules,
   each read one step. Built once per machine, not on every turn. *)
let accesses t ~steps ~pid (cell : 'reg -> Dcell.t) =
  let read r =
    let c = cell r in
    if c.reader >= 0 && c.reader <> pid && c.owner <> pid then
      denied ~pid c "read";
    let v = Dcell.read c in
    count t steps ~pid;
    v
  in
  let write r u =
    let c = cell r in
    if c.owner <> pid then denied ~pid c "write";
    Dcell.write c u;
    bump t
  in
  (read, write)

(* Advance one machine to its next Yield (one "turn"), answering reads
   inline: on the domains backend a register read never blocks, so the
   only preemption points *within* a domain are the cores' explicit
   yields — between domains, every shared access races for real. A turn
   counts one step when it starts and one per read, against the
   domain's step budget, which the processes it hosts share. Each access
   is checked against the cell's owner and single reader first. *)
let turn (t : t) ~steps ~pid (Run m as machine) : [ `Yielded | `Done | `Dead ] =
  if m.dead then `Dead
  else begin
    (* Snapshot the write version before the turn's first read, not at
       its yield: a write landing between a read and the yield must
       unpark the machine, or its wakeup is lost. The machine's own
       writes move the version too, so it re-runs once after writing and
       parks on its next read-only pass. *)
    let snap = Atomic.get t.version in
    (* The ambient span follows the machine across turns, the way Sched
       carries it across fiber switches: restore before stepping, save
       after (note callbacks may have pushed/popped HELP spans). *)
    if Obs.enabled () then Obs.set_ambient ~span:m.ospan ~pid;
    try
      count t steps ~pid;
      let r =
        match
          Machine.advance ~read:m.read ~write:m.write ~note:m.onote
            (m.resume ())
        with
        | Machine.Yield k ->
            m.resume <- k;
            m.parked <- snap;
            `Yielded
        | Machine.Ret a ->
            m.fin a;
            m.parked <- -1;
            `Done
        | Machine.Read _ | Machine.Write _ | Machine.Note _ ->
            invalid_arg "Domains.turn: Machine.advance stopped short of a yield"
      in
      if Obs.enabled () then m.ospan <- Obs.ambient ();
      r
    with
    | Abort _ as e -> raise e
    | e ->
        m.dead <- true;
        if Obs.enabled () then m.ospan <- Obs.ambient ();
        if m.critical then
          raise
            (Abort
               (Printf.sprintf "correct machine %s failed: %s"
                  (name ~pid machine) (Printexc.to_string e)))
        else `Dead
  end

let runnable v (Run m) = (not m.dead) && m.parked <> v

(* ---------------- Waiting ---------------- *)

(* How often a domain polls what it waits for, relaxing the CPU in
   between, before it blocks on a condition variable. Three waits use
   it: a domain with nothing runnable (on the write version), an idle
   worker (on its hand-off slot) and a caller done with its own body (on
   its run's count of running workers). On a 2-vCPU host a poll takes
   about 35 ns, so 500 polls about 18 us, while a domain blocked in
   [Condition.wait] took a median 28 us to run again after a signal,
   against 1 us for one still polling. Back-to-back dom-sticky-read
   sessions (about 80 us each) ran at medians of 9,956, 11,104 and
   10,798 sessions/s with 200, 500 and 1,000 polls (6 runs of 5,000
   sessions each); at 500, 93% of hand-offs found the worker still
   polling, and the caller never had to block for its workers. With
   the other vCPU busy elsewhere, 500 polls ran 10-30% slower than 200:
   polling takes a core some other domain may need. *)
let idle_spins = 500

(* True as soon as [ready ()] holds, false if it still does not after
   [idle_spins] polls. *)
let spin ready =
  let rec go i = ready () || (i > 0 && (Domain.cpu_relax (); go (i - 1))) in
  go idle_spins

(* Returns once [ready ()] holds: spin, then block on [cond]. Whoever
   makes it hold then calls [wake mu cond]; the waiter re-checks under
   [mu] before each wait, so the signal cannot fall between its check
   and its wait. *)
let spin_then_wait ready mu cond =
  if not (spin ready) then begin
    Mutex.lock mu;
    while not (ready ()) do
      Condition.wait cond mu
    done;
    Mutex.unlock mu
  end

let wake mu cond =
  Mutex.lock mu;
  Condition.signal cond;
  Mutex.unlock mu

(* ---------------- Worker pool ---------------- *)

(* Spawning and joining 4 domains cost 1.6–1.9 ms on 2 vCPUs, about half
   of an 8-op session, so worker domains outlive runs. Domains are a process
   resource (the runtime caps them at 128): the pool is process-wide and
   lazy, a process that never runs spawns nothing, and it grows to the
   largest number of workers borrowed at once: the caller hosts one body
   of its run, so at most [Domain.recommended_domain_count ()] - 1 per
   concurrent run. A worker done with a body spins on its hand-off slot,
   where back-to-back runs find it awake, then blocks in
   [Condition.wait], which does not keep the process from exiting. All
   per-run state stays in [t] and [run_pooled]. *)
type worker = {
  task : (unit -> unit) option Atomic.t;
  wmu : Mutex.t;
  wcond : Condition.t;
}

(* LIFO, so a run reuses the workers the previous run handed back. *)
let pool_mu = Mutex.create ()
let idle : worker list ref = ref []

let rec serve w =
  spin_then_wait (fun () -> Option.is_some (Atomic.get w.task)) w.wmu w.wcond;
  let f = Option.get (Atomic.exchange w.task None) in
  f ();
  serve w

let borrow () =
  Mutex.lock pool_mu;
  let w = match !idle with w :: rest -> idle := rest; Some w | [] -> None in
  Mutex.unlock pool_mu;
  match w with
  | Some w -> w
  | None ->
      let w =
        {
          task = Atomic.make None;
          wmu = Mutex.create ();
          wcond = Condition.create ();
        }
      in
      ignore (Domain.spawn (fun () -> serve w) : unit Domain.t);
      w

let hand_back w =
  Mutex.lock pool_mu;
  idle := w :: !idle;
  Mutex.unlock pool_mu

(* Runs the first body on the calling domain and each other body on its
   own borrowed worker, and returns once all have ended, with
   [Domain.join]'s semantics:
   - the workers get their bodies before the caller starts its own;
   - a body's exception is caught where it ran, so a worker survives,
     and the first one in list order is re-raised here after every body
     ended;
   - each worker counts the run down with an atomic after its body, and
     the caller returns only once it reads zero, so every worker's writes
     happen before the caller's reads, as joining did.
   The caller spins on the count before it blocks, as an idle worker
   does on its slot: a run's bodies end within microseconds of each
   other, and back-to-back runs find their workers still spinning.
   A worker goes back on the idle list before it counts the run down:
   otherwise the next run could find it still busy and spawn a
   replacement, growing the pool every session. A reused worker starts
   each body with a fresh Obs context and ends it pinning no trace
   arena. The caller keeps its Obs context, whose parent links its own
   open spans need, and its trace arena; it only gets its ambient span
   and pid back after its body. *)
let run_pooled (bodies : (unit -> unit) list) : unit =
  match bodies with
  | [] -> ()
  | first :: rest ->
      let mu = Mutex.create () and cond = Condition.create () in
      let pending = Atomic.make (List.length rest) in
      let failed = Array.make (1 + Atomic.get pending) None in
      let guard i body =
        try body ()
        with e -> failed.(i) <- Some (e, Printexc.get_raw_backtrace ())
      in
      List.iteri
        (fun i body ->
          let w = borrow () in
          let task () =
            Obs.reset_domain ();
            guard (i + 1) body;
            Trace.release_domain ();
            hand_back w;
            if Atomic.fetch_and_add pending (-1) = 1 then wake mu cond
          in
          Atomic.set w.task (Some task);
          wake w.wmu w.wcond)
        rest;
      let span = Obs.ambient () and pid = Obs.ambient_pid () in
      guard 0 first;
      Obs.set_ambient ~span ~pid;
      spin_then_wait (fun () -> Atomic.get pending = 0) mu cond;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
        failed

let run (t : t) : (int, string) result =
  (* Traced runs stamp every event through the same fetch-and-add clock
     that stamps operation intervals: stamps are unique across domains,
     so the per-domain arenas merge into one total order no matter how
     the domains raced. *)
  if Obs.enabled () then Obs.set_clock (fun () -> tick t.clock);
  let procs = List.sort (fun a b -> compare a.pid b.pid) t.procs in
  let total_jobs =
    List.fold_left (fun acc p -> acc + List.length p.jobs) 0 procs
  in
  let remaining = Atomic.make total_jobs in
  let aborted : string option Atomic.t = Atomic.make None in
  let steps_total = Atomic.make 0 in
  (* More busy domains than cores would only add OS sleeps and wakeups;
     processes sharing a domain interleave at their yields instead, which
     is still a legal asynchronous schedule. *)
  let g = min (List.length procs) (Domain.recommended_domain_count ()) in
  let groups =
    List.init g (fun k -> List.filteri (fun i _ -> i mod g = k) procs)
  in
  t.live <- g;
  t.blocked <- [];
  (* Under [mu]. If every live domain waits on the current version, no
     write can ever come: abort, naming each parked machine in pid order,
     and wake every blocked domain. *)
  let check_stall () =
    let v = Atomic.get t.version in
    match List.filter (fun (w, _) -> w = v) t.blocked with
    | stuck when t.live > 0 && List.length stuck = t.live ->
        let parked =
          List.concat_map snd stuck
          |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map (fun (pid, r) ->
                 Printf.sprintf "%s (pid %d)" (name ~pid r) pid)
        in
        let m =
          "domains run stalled: every live domain is parked with no write \
           to come; parked: " ^ String.concat ", " parked
        in
        ignore (Atomic.compare_and_set aborted None (Some m));
        Atomic.incr t.version;
        Condition.broadcast t.cond
    | _ -> ()
  in
  (* Returns once the write version differs from [v]: spin, then block.
     [parked] lists the domain's machines for a stall report. *)
  let await ~v ~parked =
    if not (spin (fun () -> Atomic.get t.version <> v)) then begin
      let me = (v, parked ()) in
      Mutex.lock t.mu;
      Atomic.incr t.waiters;
      if Atomic.get t.version = v then begin
        t.blocked <- me :: t.blocked;
        check_stall ();
        while Atomic.get t.version = v do
          Condition.wait t.cond t.mu
        done;
        t.blocked <- List.filter (fun e -> e != me) t.blocked
      end;
      Atomic.decr t.waiters;
      Mutex.unlock t.mu
    end
  in
  (* Per-process root span: every operation span of the process nests
     under it, so a merged multi-domain trace keeps one subtree per
     process. Daemons stay at top level (parent 0), mirroring the
     simulator's daemon fibers — they are abandoned at teardown and
     their dangling spans are abort-closed by Trace.finish. *)
  let host ~steps (p : proc) =
    let root =
      if Obs.enabled () then begin
        Obs.set_ambient ~span:0 ~pid:p.pid;
        Obs.span_open ~pid:p.pid ~name:"process"
          ~arg:(Printf.sprintf "p%d" p.pid) ()
      end
      else 0
    in
    let background =
      List.map
        (fun (Daemon d) ->
          let read, write = accesses t ~steps ~pid:p.pid d.cell in
          Run
            {
              label = d.label;
              critical = d.critical;
              resume = (fun () -> d.prog);
              read;
              write;
              onote = d.on_note;
              ospan = 0;
              fin = (fun () -> ());
              dead = false;
              parked = -1;
            })
        p.daemons
    in
    { proc = p; queue = p.jobs; current = None; background; root }
  in
  let start ~steps h (Job j) =
    let pid = h.proc.pid in
    let name, arg = j.span in
    (* The operation span must BRACKET the [inv, ret] interval: open
       before the inv tick, close after the ret tick. The trace-derived
       precedence order is then a subset of the direct history's, so
       folding the trace back into a history can never add precedence
       pairs the checkers didn't already judge. *)
    let ospan =
      if name <> "" && Obs.enabled () then begin
        Obs.set_ambient ~span:h.root ~pid;
        Obs.span_open ~pid ~name ?arg ()
      end
      else h.root
    in
    let inv = tick t.clock in
    let prog = j.prog () in
    let read, write = accesses t ~steps ~pid j.cell in
    Run
      {
        label = "";
        critical = true;
        resume = (fun () -> prog);
        read;
        write;
        onote = j.on_note;
        ospan;
        fin =
          (fun a ->
            let ret = tick t.clock in
            j.finish ~inv ~ret a;
            if name <> "" && ospan <> h.root then
              Obs.span_close ~pid
                ?result:(Option.map (fun r -> r a) j.render)
                ~name ospan;
            Atomic.decr remaining;
            bump t);
        dead = false;
        parked = -1;
      }
  in
  let busy h =
    Option.is_some h.current || h.queue <> []
    || (h.background <> [] && Atomic.get remaining > 0)
  in
  let body (group : proc list) () =
    let steps = ref 0 in
    let hosts = List.map (host ~steps) group in
    let parked () =
      List.concat_map
        (fun h ->
          List.filter_map
            (fun (Run m as r) -> if m.dead then None else Some (h.proc.pid, r))
            (Option.to_list h.current @ h.background))
        hosts
    in
    let raised =
     try
       while
         (match Atomic.get aborted with Some _ -> false | None -> true)
         && List.exists busy hosts
       do
         (* One pass: every machine not parked on [v] takes a turn, process
            by process in pid order, current operation first. A process
            that looks finished is offered its turns all the same: the last
            job's completion bumps the version, and a pass that read the
            new version but ran nothing would block on a version no one
            will move. *)
         let v = Atomic.get t.version in
         let ran = ref false in
         List.iter
           (fun h ->
             let pid = h.proc.pid in
             (match (h.current, h.queue) with
             | None, j :: rest ->
                 h.queue <- rest;
                 h.current <- Some (start ~steps h j)
             | _ -> ());
             (match h.current with
             | Some r when runnable v r -> (
                 ran := true;
                 match turn t ~steps ~pid r with
                 | `Done | `Dead -> h.current <- None
                 | `Yielded -> ())
             | _ -> ());
             List.iter
               (fun d ->
                 if runnable v d then begin
                   ran := true;
                   ignore (turn t ~steps ~pid d)
                 end)
               h.background)
           hosts;
         if not !ran then await ~v ~parked
       done;
       None
     with
     | Abort m ->
         ignore (Atomic.compare_and_set aborted None (Some m));
         bump t;
         None
     | e ->
         (* Anything else (a job's program builder raising) is re-raised
            by [run] once every body has ended: abort the run so the
            other domains end too instead of waiting on this one. *)
         let bt = Printexc.get_raw_backtrace () in
         ignore
           (Atomic.compare_and_set aborted None (Some (Printexc.to_string e)));
         bump t;
         Some (e, bt)
    in
    (* Close each root span on a clean exit; an aborted run leaves them
       (and any open operation span) dangling for Trace.finish to
       abort-close, so the incomplete run is visible in the trace. *)
    List.iter
      (fun h ->
        match h.current with
        | None when h.root <> 0 && Atomic.get aborted = None ->
            Obs.span_close ~pid:h.proc.pid ~name:"process" h.root
        | _ -> ())
      hosts;
    ignore (Atomic.fetch_and_add steps_total !steps);
    (* The domains still waiting may have been waiting on this one. *)
    Mutex.lock t.mu;
    t.live <- t.live - 1;
    check_stall ();
    Mutex.unlock t.mu;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) raised
  in
  run_pooled (List.map body groups);
  match Atomic.get aborted with
  | Some m -> Error m
  | None ->
      if Atomic.get remaining > 0 then
        Error "domains run ended with incomplete operations"
      else Ok (Atomic.get steps_total)
