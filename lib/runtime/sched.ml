(* Cooperative scheduler over OCaml effects.

   Each simulated process contributes one or more fibers (an operation
   fiber, plus the background Help() fiber the algorithms of the paper
   require). A fiber runs as ordinary OCaml code; every shared-register
   access is an effect, and the scheduler resumes exactly one fiber per
   step — so register accesses are atomic and the set of possible
   interleavings is precisely that of the paper's asynchronous model.

   Scheduling is driven by a pluggable, deterministic policy; runs replay
   exactly from (program, policy) because all randomness is seeded. *)

open Lnd_support
open Lnd_shm
module Obs = Lnd_obs.Obs

type _ Effect.t +=
  | E_read : Register.t -> Univ.t Effect.t
  | E_write : Register.t * Univ.t -> unit Effect.t
  | E_yield : unit Effect.t
  | E_clock : int Effect.t (* read-and-advance the logical clock; no scheduling point *)
  | E_now : int Effect.t (* read the logical clock without advancing it; no scheduling point *)
  | E_self : int Effect.t (* pid of the running fiber; no scheduling point *)
  | E_rmw : Register.t * (Univ.t -> Univ.t) -> Univ.t Effect.t
    (* Atomic owner-only read-modify-write, used ONLY by the
       message-passing substrate to append to channel logs (channels are
       FIFO queues, not registers; two fibers of the same process may
       send concurrently). The paper's algorithms never use this — their
       registers are plain read/write. *)

exception Killed

type outcome = Completed | Failed of exn

(* The register access a fiber's NEXT step will perform. Because every
   access effect suspends the fiber and the installed continuation does
   the access at resumption, the footprint of a step is known BEFORE the
   step executes — this is what lets the DPOR explorer (see Explore)
   decide whether two pending steps conflict without running them.
   [A_none] covers yields and the spawn-to-first-effect prefix (which
   touches no shared register: fibers run between scheduling points on
   private state only). [A_update] is a read-modify-write: it conflicts
   like a write. *)
type footprint =
  | A_none
  | A_read of Register.t
  | A_write of Register.t
  | A_update of Register.t

(* A machine fiber's program chain: the core program it is running and
   what follows its return — called inside the step that returned it, so
   it may stamp the clock and open or close spans — together with what
   its driver carries along, as a value: the residual program and that
   value are the fiber's whole state, which is what lets the scheduler
   rewind it. *)
type ('reg, 'd) job =
  | Job : ('reg, 'a) Machine.prog * ('a -> ('reg, 'd) job) * 'd -> ('reg, 'd) job
  | Done of 'd

type fiber = {
  fid : int;
  pid : int;
  fname : string;
  daemon : bool; (* daemons (Help loops) never block quiescence *)
  sched : t; (* the scheduler that spawned this fiber *)
  mutable state : state;
  mutable next_access : footprint;
      (* footprint of the next step; maintained by the effect handlers
         and the machine stepper *)
  mutable parked_at : int;
      (* park-on-yield mode: the scheduler's write count when this fiber
         yielded, or -1 when runnable. A parked fiber re-enables only
         after some fiber writes — re-running a read-only poll pass
         against unchanged shared state is pure stutter. *)
  mutable ospan : int;
      (* ambient Obs span, saved/restored at fiber switches so spans
         follow fibers rather than the host call stack *)
  machine : machine; (* [No_machine] for an effect fiber *)
}

and state = Ready of (unit -> unit) | Finished of outcome

and machine = No_machine | Machine : ('reg, 'd) mstate -> machine

(* A machine fiber: its job, paused at a Read, Write or Yield (or, before
   its first step, at the [Ret ()] that starts it), and the jobs it was
   at before each of its journalled steps, for rewinding. *)
and ('reg, 'd) mstate = {
  mutable cur : ('reg, 'd) job;
  at : 'reg -> Register.t; (* the core's register names in this Space *)
  note : Machine.note -> unit;
  read : 'reg -> Univ.t; (* a Space access that marks its journal entry *)
  write : 'reg -> Univ.t -> unit; (* likewise, keeping the old value *)
  mutable resume : state; (* [Ready] of this fiber's stepper, built once *)
  mutable past : ('reg, 'd) job array;
  mutable npast : int;
}

and t = {
  space : Space.t;
  mutable fibers : fiber list; (* in spawn order, oldest first *)
  mutable next_fid : int;
  mutable steps : int;
  mutable writes : int; (* register writes executed; drives park-on-yield *)
  mutable park_on_yield : bool;
      (* fair-scheduling reduction for the explorers: a yield parks the
         fiber until the next write by anyone. Off by default — normal
         runs keep the paper's fully asynchronous semantics. *)
  mutable clock : int; (* logical time: advanced by steps and by E_clock *)
  mutable enabled : fiber -> bool; (* scheduling mask, used by targeted scenarios *)
  mutable choose : t -> fiber array -> int; (* policy: pick among ready fibers *)
  mutable ready : fiber array;
      (* the ready fibers in spawn order, kept from step to step and
         rebuilt only once [stale] is set *)
  mutable stale : bool;
      (* readiness may have changed since [ready] was built: a spawn, a
         kill, a mask change, or a step that finished or parked its
         fiber or wrote while a fiber was parked *)
  mutable client_left : bool;
      (* some runnable fiber is not a daemon (as of the last rebuild) *)
  mutable any_parked : bool;
      (* some runnable fiber is parked (as of the last rebuild), so the
         next write changes readiness *)
  mutable ready_bufs : fiber array array;
      (* the arrays [ready] is built in, one per length. Owned by this
         scheduler, so they die with it. *)
  mutable on_failure : (fiber -> exn -> unit) option;
      (* invoked the moment any fiber dies with an exception other than
         Killed — so harnesses surface failures loudly instead of
         discovering them (or not) in a post-run [failures] sweep *)
  mutable last_fid : int; (* last fiber stepped, for Obs switch events *)
  mutable footprints : footprint array;
      (* the footprints machine fibers pause at, made once per register:
         its read at [2 * id], its write at [2 * id + 1] *)
  (* The journal: one entry per step while the system journals —
     switched on by [journal] before the first step, and only while
     [can_journal]: only machine fibers, no spawn, kill or mask change
     once it ran, no step under an Obs sink. Entry [i] holds what step
     [i] changed besides the stepped fiber's job, which that fiber's own
     [past] keeps. *)
  mutable can_journal : bool;
  mutable rewindable : bool; (* journalling, so it can rewind *)
  mutable j_fiber : fiber array; (* the fiber stepped *)
  mutable j_parked : int array; (* its [parked_at] before the step *)
  mutable j_clock : int array; (* the clock before the step *)
  mutable j_access : int array; (* 0: no access done; 1: a read; 2: a write *)
  mutable j_old : Univ.t array; (* a write's register value before it *)
  mutable rewound : int; (* steps rewound away over the system's life *)
}

let create ~space ~choose =
  let t =
    {
      space;
      fibers = [];
      next_fid = 0;
      steps = 0;
      writes = 0;
      park_on_yield = false;
      clock = 0;
      enabled = (fun _ -> true);
      choose;
      ready = [||];
      stale = true;
      client_left = false;
      any_parked = false;
      ready_bufs = [||];
      on_failure = None;
      last_fid = -1;
      footprints = [||];
      can_journal = true;
      rewindable = false;
      j_fiber = [||];
      j_parked = [||];
      j_clock = [||];
      j_access = [||];
      j_old = [||];
      rewound = 0;
    }
  in
  (* Events carry scheduler time; the hook is a plain field read so it
     stays callable outside any fiber (unlike the E_now effect). *)
  Obs.set_clock (fun () -> t.clock);
  t

let set_on_failure t h = t.on_failure <- h
let set_park_on_yield t b = t.park_on_yield <- b

(* For good: the system can no longer journal or rewind. *)
let no_journal t =
  t.can_journal <- false;
  t.rewindable <- false

let set_enabled t mask =
  t.enabled <- mask;
  no_journal t;
  t.stale <- true

let set_choose t choose = t.choose <- choose
let space t = t.space
let steps t = t.steps
let clock t = t.clock
let executed t = t.steps + t.rewound
let rewindable t = t.rewindable

let journal t =
  if t.steps > 0 then invalid_arg "Sched.journal: the system already ran";
  if t.can_journal then t.rewindable <- true

let stamp t =
  t.clock <- t.clock + 1;
  t.clock

(* --- Effects available inside fiber bodies --- *)

let read (r : Register.t) : Univ.t = Effect.perform (E_read r)
let write (r : Register.t) (v : Univ.t) : unit = Effect.perform (E_write (r, v))
let yield () : unit = Effect.perform E_yield
let tick () : int = Effect.perform E_clock
let now () : int = Effect.perform E_now
let self () : int = Effect.perform E_self
let rmw (r : Register.t) (f : Univ.t -> Univ.t) : Univ.t = Effect.perform (E_rmw (r, f))

(* --- Fiber machinery --- *)

(* A fiber with the next fid, not yet runnable: [add] makes it so. *)
let make_fiber t ~pid ~name ~daemon machine =
  if pid < 0 || pid >= Space.n t.space then invalid_arg "Sched.spawn: bad pid";
  let fiber =
    { fid = t.next_fid; pid; fname = name; daemon; sched = t;
      state = Finished Completed; next_access = A_none; parked_at = -1;
      ospan = 0; machine }
  in
  t.next_fid <- t.next_fid + 1;
  if Obs.enabled () then
    Obs.emit ~pid
      (Obs.Sched_spawn { fid = fiber.fid; fname = name; daemon });
  fiber

let add t fiber state =
  fiber.state <- state;
  t.fibers <- t.fibers @ [ fiber ];
  t.stale <- true

let spawn t ~pid ~name ?(daemon = false) (body : unit -> unit) : fiber =
  let fiber = make_fiber t ~pid ~name ~daemon No_machine in
  no_journal t;
  let open Effect.Deep in
  (* The handlers of the effects that are not scheduling points carry no
     per-effect state, so each fiber builds them once instead of on every
     perform: [Sched.now] runs before every channel poll. *)
  let on_clock =
    Some
      (fun (k : (int, unit) continuation) ->
        t.clock <- t.clock + 1;
        continue k t.clock)
  in
  let on_now = Some (fun (k : (int, unit) continuation) -> continue k t.clock) in
  let on_self =
    Some (fun (k : (int, unit) continuation) -> continue k fiber.pid)
  in
  let start () =
    match_with body ()
      {
        retc =
          (fun () ->
            fiber.state <- Finished Completed;
            if Obs.enabled () then
              Obs.emit ~pid
                (Obs.Sched_exit { fid = fiber.fid; fname = name; failed = false }));
        exnc =
          (fun e ->
            fiber.state <- Finished (Failed e);
            if Obs.enabled () then
              Obs.emit ~pid
                (Obs.Sched_exit { fid = fiber.fid; fname = name; failed = true });
            match e with
            | Killed -> ()
            | e -> Option.iter (fun h -> h fiber e) t.on_failure);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | E_read r ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fiber.next_access <- A_read r;
                    fiber.state <-
                      Ready
                        (fun () ->
                          match Space.read t.space ~by:fiber.pid r with
                          | v -> continue k v
                          | exception e -> discontinue k e))
            | E_write (r, v) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fiber.next_access <- A_write r;
                    fiber.state <-
                      Ready
                        (fun () ->
                          match Space.write t.space ~by:fiber.pid r v with
                          | () -> continue k ()
                          | exception e -> discontinue k e))
            | E_yield ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fiber.next_access <- A_none;
                    if t.park_on_yield then fiber.parked_at <- t.writes;
                    fiber.state <- Ready (fun () -> continue k ()))
            | E_clock -> on_clock
            | E_now -> on_now
            | E_self -> on_self
            | E_rmw (r, f) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    fiber.next_access <- A_update r;
                    fiber.state <-
                      Ready
                        (fun () ->
                          match
                            let old = Space.read t.space ~by:fiber.pid r in
                            let v = f old in
                            Space.write t.space ~by:fiber.pid r v;
                            v
                          with
                          | v -> continue k v
                          | exception e -> discontinue k e))
            | _ -> None);
      }
  in
  add t fiber (Ready start);
  fiber

(* ---------------- Machine fibers ---------------- *)

(* The footprint of reading ([kind] 0) or writing ([kind] 1) [r], made
   once per register so a machine fiber pauses without allocating. *)
let footprint t (r : Register.t) kind =
  let i = (2 * r.Register.id) + kind in
  if i >= Array.length t.footprints then begin
    let bigger = Array.make (2 * (i + 1)) A_none in
    Array.blit t.footprints 0 bigger 0 (Array.length t.footprints);
    t.footprints <- bigger
  end;
  match t.footprints.(i) with
  | A_none ->
      let fp = if kind = 0 then A_read r else A_write r in
      t.footprints.(i) <- fp;
      fp
  | fp -> fp

(* Pause [f] at the next Read, Write or Yield (which parks the fiber in
   park-on-yield mode) of [p], its job being [(k, d)]. Notes on the way
   go to the fiber's handler; a Ret runs the job's continuation at once
   — on to the next job, or the end. *)
let rec pause : type r a d.
    t -> fiber -> (r, d) mstate -> (r, a) Machine.prog -> (a -> (r, d) job) ->
    d -> unit =
 fun t f m p k d ->
  match p with
  | Machine.Read (r, _) ->
      m.cur <- Job (p, k, d);
      f.next_access <- footprint t (m.at r) 0;
      f.state <- m.resume
  | Machine.Write (r, _, _) ->
      m.cur <- Job (p, k, d);
      f.next_access <- footprint t (m.at r) 1;
      f.state <- m.resume
  | Machine.Yield _ ->
      m.cur <- Job (p, k, d);
      f.next_access <- A_none;
      if t.park_on_yield then f.parked_at <- t.writes;
      f.state <- m.resume
  | Machine.Note _ ->
      pause t f m (Machine.step ~read:m.read ~write:m.write ~note:m.note p) k d
  | Machine.Ret a -> (
      match k a with
      | Done _ as j ->
          m.cur <- j;
          f.state <- Finished Completed;
          if Obs.enabled () then
            Obs.emit ~pid:f.pid
              (Obs.Sched_exit { fid = f.fid; fname = f.fname; failed = false })
      | Job (p', k', d') as j ->
          m.cur <- j;
          pause t f m p' k' d')

(* One step of a machine fiber: the single Machine.step on its paused
   node — the access, the resumed yield, or (first step) the start —
   then [pause]. An exception ends the fiber as it would end an effect
   fiber. *)
let machine_step t f m () =
  match
    match m.cur with
    | Job (p, k, d) ->
        pause t f m (Machine.step ~read:m.read ~write:m.write ~note:m.note p) k d
    | Done _ -> invalid_arg "Sched: a finished machine fiber stepped"
  with
  | () -> ()
  | exception e -> (
      f.state <- Finished (Failed e);
      if Obs.enabled () then
        Obs.emit ~pid:f.pid
          (Obs.Sched_exit { fid = f.fid; fname = f.fname; failed = true });
      match e with
      | Killed -> ()
      | e -> Option.iter (fun h -> h f e) t.on_failure)

let spawn_machine t ~pid ~name ?(daemon = false) ?(note = fun _ -> ())
    ~(at : 'reg -> Register.t) ~(data : 'd) (start : unit -> ('reg, 'd) job) :
    unit -> 'd =
  if t.steps > 0 then no_journal t;
  let space = t.space in
  (* A completed access marks its journal entry, a write with the value
     it replaced; the entry is the current step's, [steps - 1]. *)
  let read r =
    let v = Space.read space ~by:pid (at r) in
    if t.rewindable then t.j_access.(t.steps - 1) <- 1;
    v
  in
  let write r u =
    let reg = at r in
    let old = reg.Register.value in
    Space.write space ~by:pid reg u;
    if t.rewindable then begin
      t.j_access.(t.steps - 1) <- 2;
      t.j_old.(t.steps - 1) <- old
    end
  in
  let m =
    { cur = Job (Machine.Ret (), start, data); at; note; read; write;
      resume = Finished Completed; past = [||]; npast = 0 }
  in
  let fiber = make_fiber t ~pid ~name ~daemon (Machine m) in
  m.resume <- Ready (machine_step t fiber m);
  add t fiber m.resume;
  fun () -> match m.cur with Job (_, _, d) -> d | Done d -> d

let kill (f : fiber) : unit =
  match f.state with
  | Ready _ ->
      f.state <- Finished (Failed Killed);
      no_journal f.sched;
      f.sched.stale <- true
  | Finished _ -> ()

(* ---------------- The journal ---------------- *)

(* A system stops journalling, for good, past this many steps: an
   explorer's runs are a few hundred steps long. *)
let journal_limit = 1 lsl 16

let grow a fill =
  let bigger = Array.make (max 256 (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* Record what step [t.steps] of [f] is about to change. *)
let record_step t (f : fiber) =
  let i = t.steps in
  if i >= journal_limit then no_journal t
  else begin
    if i = Array.length t.j_fiber then begin
      t.j_fiber <- grow t.j_fiber f;
      t.j_parked <- grow t.j_parked 0;
      t.j_clock <- grow t.j_clock 0;
      t.j_access <- grow t.j_access 0;
      t.j_old <- grow t.j_old Univ.(inj unit ())
    end;
    t.j_fiber.(i) <- f;
    t.j_parked.(i) <- f.parked_at;
    t.j_clock.(i) <- t.clock;
    t.j_access.(i) <- 0;
    match f.machine with
    | Machine m ->
        if m.npast = Array.length m.past then m.past <- grow m.past m.cur;
        m.past.(m.npast) <- m.cur;
        m.npast <- m.npast + 1
    | No_machine -> invalid_arg "Sched: journalling an effect fiber"
  end

(* Undo step [i], the latest one still in place. *)
let undo t i =
  let f = t.j_fiber.(i) in
  (match f.machine with
  | Machine m -> (
      m.npast <- m.npast - 1;
      let j = m.past.(m.npast) in
      m.cur <- j;
      f.state <- m.resume;
      match j with
      | Job (Machine.Read (r, _), _, _) ->
          let reg = m.at r in
          if t.j_access.(i) = 1 then Space.unread t.space ~by:f.pid reg;
          f.next_access <- footprint t reg 0
      | Job (Machine.Write (r, _, _), _, _) ->
          let reg = m.at r in
          t.writes <- t.writes - 1;
          if t.j_access.(i) = 2 then
            Space.unwrite t.space ~by:f.pid reg ~old:t.j_old.(i);
          f.next_access <- footprint t reg 1
      | Job ((Machine.Yield _ | Machine.Ret _ | Machine.Note _), _, _) | Done _
        ->
          f.next_access <- A_none)
  | No_machine -> invalid_arg "Sched: journalling an effect fiber");
  f.parked_at <- t.j_parked.(i)

let rewind t k =
  if not t.rewindable then invalid_arg "Sched.rewind: the system cannot rewind";
  if k < 0 || k > t.steps then invalid_arg "Sched.rewind: no such step";
  if k < t.steps then begin
    for i = t.steps - 1 downto k do
      undo t i
    done;
    t.rewound <- t.rewound + t.steps - k;
    t.clock <- t.j_clock.(k);
    t.steps <- k;
    t.stale <- true
  end

(* Runnable = Ready + passing the scenario mask; parked fibers (see
   [park_on_yield]) additionally wait for the next write by anyone. *)
let runnable t f =
  (match f.state with Ready _ -> true | _ -> false) && t.enabled f

let parked t f = f.parked_at >= 0 && t.writes <= f.parked_at
let is_ready t f = runnable t f && not (parked t f)

(* Run one step of one chosen fiber. Raises nothing: fiber exceptions are
   captured in the fiber's outcome. *)
let step_fiber t (f : fiber) : unit =
  match f.state with
  | Finished _ -> invalid_arg "Sched.step_fiber: fiber not ready"
  | Ready go ->
      if t.rewindable then record_step t f;
      (* Mark running; [go] re-installs Ready on the next effect. *)
      f.state <- Finished Completed;
      f.parked_at <- -1;
      (match f.next_access with
      | A_write _ | A_update _ ->
          t.writes <- t.writes + 1;
          (* a write re-enables every parked fiber *)
          if t.any_parked then t.stale <- true
      | A_none | A_read _ -> ());
      t.steps <- t.steps + 1;
      t.clock <- t.clock + 1;
      if Obs.enabled () then begin
        no_journal t;
        if t.last_fid <> f.fid then begin
          t.last_fid <- f.fid;
          Obs.emit ~pid:f.pid (Obs.Sched_switch { fid = f.fid; fname = f.fname })
        end;
        (* Make the fiber's saved span ambient for the duration of its
           step, then stash whatever it left ambient. *)
        Obs.set_ambient ~span:f.ospan ~pid:f.pid;
        go ();
        f.ospan <- Obs.ambient ();
        Obs.set_ambient ~span:0 ~pid:(-1)
      end
      else go ();
      (* the fiber left the ready set if it finished or parked *)
      match f.state with
      | Finished _ -> t.stale <- true
      | Ready _ -> if f.parked_at >= 0 then t.stale <- true

type stop_reason = Quiescent | Budget_exhausted | Condition_met

(* Count the ready fibers in [fs] and note whether a client is still
   runnable and whether any runnable fiber is parked. *)
let rec count_ready t fs n =
  match fs with
  | [] -> n
  | f :: rest ->
      if not (runnable t f) then count_ready t rest n
      else begin
        if not f.daemon then t.client_left <- true;
        if parked t f then begin
          t.any_parked <- true;
          count_ready t rest n
        end
        else count_ready t rest (n + 1)
      end

let rec fill_ready t buf i = function
  | [] -> ()
  | f :: rest ->
      if is_ready t f then begin
        buf.(i) <- f;
        fill_ready t buf (i + 1) rest
      end
      else fill_ready t buf i rest

(* Rebuild [t.ready] in the scheduler's buffer of that length, in spawn
   order. *)
let refresh t =
  t.client_left <- false;
  t.any_parked <- false;
  let n = count_ready t t.fibers 0 in
  if n >= Array.length t.ready_bufs then begin
    let bigger = Array.make (n + 1) [||] in
    Array.blit t.ready_bufs 0 bigger 0 (Array.length t.ready_bufs);
    t.ready_bufs <- bigger
  end;
  if Array.length t.ready_bufs.(n) <> n then
    t.ready_bufs.(n) <- Array.make n (List.hd t.fibers);
  let buf = t.ready_bufs.(n) in
  fill_ready t buf 0 t.fibers;
  t.ready <- buf;
  t.stale <- false

(* Run until every enabled non-daemon fiber has finished, the predicate
   [until] holds, or [max_steps] elapse. Daemons keep getting scheduled
   while clients run, but never keep the run alive on their own. *)
let run ?(max_steps = 1_000_000) ?(until = fun (_ : t) -> false) (t : t) :
    stop_reason =
  (* a run that an exception ended (a raising failure hook or policy)
     may have left [ready] behind *)
  t.stale <- true;
  let rec loop () =
    if until t then Condition_met
    else begin
      if t.stale then refresh t;
      if not t.client_left then Quiescent
      else if Array.length t.ready = 0 then
        (* park-on-yield livelock: every runnable fiber waits for a write
           that can never come. Inconclusive, like a blown step budget. *)
        Budget_exhausted
      else if t.steps >= max_steps then Budget_exhausted
      else begin
        step_fiber t t.ready.(t.choose t t.ready);
        loop ()
      end
    end
  in
  loop ()

(* Fibers that terminated with an exception (other than deliberate kills). *)
let failures t =
  List.filter_map
    (fun f ->
      match f.state with
      | Finished (Failed Killed) -> None
      | Finished (Failed e) -> Some (f, e)
      | _ -> None)
    t.fibers

let pp_fiber fmt (f : fiber) =
  Format.fprintf fmt "fiber#%d p%d %s%s" f.fid f.pid f.fname
    (if f.daemon then " (daemon)" else "")

let pp_footprint fmt (a : footprint) =
  match a with
  | A_none -> Format.pp_print_string fmt "·"
  | A_read r -> Format.fprintf fmt "R(%s)" r.Register.name
  | A_write r -> Format.fprintf fmt "W(%s)" r.Register.name
  | A_update r -> Format.fprintf fmt "U(%s)" r.Register.name
