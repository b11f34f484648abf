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

type fiber = {
  fid : int;
  pid : int;
  fname : string;
  daemon : bool; (* daemons (Help loops) never block quiescence *)
  sched : t; (* the scheduler that spawned this fiber *)
  mutable state : state;
  mutable next_access : footprint;
      (* footprint of the next step; maintained by the effect handlers *)
  mutable parked_at : int;
      (* park-on-yield mode: the scheduler's write count when this fiber
         yielded, or -1 when runnable. A parked fiber re-enables only
         after some fiber writes — re-running a read-only poll pass
         against unchanged shared state is pure stutter. *)
  mutable ospan : int;
      (* ambient Obs span, saved/restored at fiber switches so spans
         follow fibers rather than the host call stack *)
}

and state = Ready of (unit -> unit) | Finished of outcome

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
    }
  in
  (* Events carry scheduler time; the hook is a plain field read so it
     stays callable outside any fiber (unlike the E_now effect). *)
  Obs.set_clock (fun () -> t.clock);
  t

let set_on_failure t h = t.on_failure <- h
let set_park_on_yield t b = t.park_on_yield <- b

let set_enabled t mask =
  t.enabled <- mask;
  t.stale <- true

let space t = t.space
let steps t = t.steps
let clock t = t.clock

(* --- Effects available inside fiber bodies --- *)

let read (r : Register.t) : Univ.t = Effect.perform (E_read r)
let write (r : Register.t) (v : Univ.t) : unit = Effect.perform (E_write (r, v))
let yield () : unit = Effect.perform E_yield
let tick () : int = Effect.perform E_clock
let now () : int = Effect.perform E_now
let self () : int = Effect.perform E_self
let rmw (r : Register.t) (f : Univ.t -> Univ.t) : Univ.t = Effect.perform (E_rmw (r, f))

(* --- Fiber machinery --- *)

let spawn t ~pid ~name ?(daemon = false) (body : unit -> unit) : fiber =
  if pid < 0 || pid >= Space.n t.space then invalid_arg "Sched.spawn: bad pid";
  let fiber =
    { fid = t.next_fid; pid; fname = name; daemon; sched = t;
      state = Finished Completed; next_access = A_none; parked_at = -1;
      ospan = 0 }
  in
  t.next_fid <- t.next_fid + 1;
  if Obs.enabled () then
    Obs.emit ~pid
      (Obs.Sched_spawn { fid = fiber.fid; fname = name; daemon });
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
  fiber.state <- Ready start;
  t.fibers <- t.fibers @ [ fiber ];
  t.stale <- true;
  fiber

let kill (f : fiber) : unit =
  match f.state with
  | Ready _ ->
      f.state <- Finished (Failed Killed);
      f.sched.stale <- true
  | Finished _ -> ()

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
