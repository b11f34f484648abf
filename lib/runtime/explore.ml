(* Bounded systematic schedule exploration.

   Three modes, one result shape:

   - [exhaustive]: the naive baseline. Enumerates scheduling decision
     sequences depth-first, branching on EVERY step over EVERY ready
     fiber; each run is driven by a scripted policy and the trail of
     (choice, branching-degree) pairs it records tells the explorer
     which sibling schedule to try next. Kept as the reference point the
     T15 benchmark measures the reduction against.

   - [dpor]: a stateless model checker with dynamic partial-order
     reduction (Flanagan–Godefroid) plus sleep sets. The scheduler knows
     each ready fiber's next register access before executing it
     ([Sched.footprint]); two steps are dependent iff they belong to the
     same fiber or touch the same register with at least one write.
     Happens-before is tracked with vector clocks; when an executed step
     races with an earlier non-ordered step, the earlier step's
     pre-state gains a backtrack point. Sleep sets prune schedules whose
     difference from an explored sibling is a commutation of independent
     steps. The net effect: one representative per Mazurkiewicz trace,
     not one run per interleaving. Each run resumes at its branch node:
     on the last run's system, rewound there (Sched.rewind), or on a
     fresh one that replays the shared prefix by fid; either way the
     explorer restores its own bookkeeping for the prefix from the nodes
     it keeps instead of recomputing it.

   - [swarm]: many independent seeded-random schedules; sparse sampling
     for programs too large to enumerate.

   All modes are bounded safety checkers: runs exceeding [max_steps] are
   pruned as inconclusive (an adversarial schedule can starve the Help
   daemons indefinitely, so unbounded termination cannot be decided by
   exploration). "Exhausted" therefore means: every schedule of at most
   [max_steps] steps was covered up to commutation of independent steps.
   See DESIGN.md §4i for the soundness argument and its caveats. *)

open Lnd_shm
module Obs = Lnd_obs.Obs

(* ---------------- Counterexamples ---------------- *)

type schedule =
  | Indices of int list (* Policy.scripted choices, the naive DFS trail *)
  | Fids of int list (* one fiber id per step, the DPOR trail *)
  | Seed of int (* Policy.random seed, the swarm trail *)

type counterexample = {
  cx_schedule : schedule;
  cx_note : string; (* caller-supplied description of the configuration *)
  cx_steps : int; (* length of the violating run *)
  cx_exn : exn; (* what the caller's check raised *)
}

exception Violation of counterexample

exception Replay_diverged of { at : int; reason : string }

let pp_ints fmt l =
  Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int l))

let pp_schedule fmt = function
  | Indices l -> Format.fprintf fmt "indices %a" pp_ints l
  | Fids l -> Format.fprintf fmt "fids %a" pp_ints l
  | Seed s -> Format.fprintf fmt "seed %d" s

let pp_counterexample fmt cx =
  Format.fprintf fmt "@[<v>violation%s after %d steps@,schedule: %a@,check raised: %s@]"
    (if cx.cx_note = "" then "" else " in " ^ cx.cx_note)
    cx.cx_steps pp_schedule cx.cx_schedule
    (Printexc.to_string cx.cx_exn)

type result = {
  runs : int; (* schedules fully explored to quiescence *)
  pruned : int; (* schedules cut off by the step budget *)
  exhausted : bool; (* true iff the whole bounded space was covered *)
  blocked : int; (* sleep-set-blocked (redundant) schedules, DPOR only *)
  races : int; (* backtrack points seeded by race detection, DPOR only *)
  max_depth : int; (* deepest schedule explored *)
}

let emit_run ~mode ~idx ~depth ~reason =
  if Obs.enabled () then
    Obs.emit (Obs.Explore_run { mode; idx; depth; reason })

let emit_stats ~mode (r : result) =
  if Obs.enabled () then
    Obs.emit
      (Obs.Explore_stats
         { mode; runs = r.runs; pruned = r.pruned; blocked = r.blocked;
           races = r.races; exhausted = r.exhausted })

(* Where a run on the system [make] handed back starts. The system the
   last run left ([prev]) is rewound to the [shared] steps the new run
   has in common with that one; any other system that already ran is
   rewound to step 0; a fresh one starts there anyway. A used system
   that cannot rewind makes Sched.rewind raise. *)
let resume ~(prev : Sched.t option) (sched : Sched.t) ~shared =
  match prev with
  | Some p when p == sched ->
      Sched.rewind sched shared;
      shared
  | _ ->
      if Sched.steps sched > 0 then Sched.rewind sched 0;
      0

(* ---------------- Naive DFS (the baseline) ---------------- *)

let exhaustive ~(make : Policy.t -> Sched.t) ~(check : Sched.t -> unit)
    ?(max_steps = 400) ?(max_runs = 20_000) ?(note = "") () : result =
  let runs = ref 0 in
  let pruned = ref 0 in
  let exhausted = ref false in
  let max_depth = ref 0 in
  let script = ref [] in
  let continue_ = ref true in
  (* The last run's system and (choice, degree) trail, oldest first: the
     next script shares all but its last choice with it. *)
  let last = ref None in
  let last_trail = ref [||] in
  while !continue_ do
    let trail = ref [] in
    let sched = make (Policy.scripted ~script:!script ~trail) in
    let shared = max 0 (List.length !script - 1) in
    let k = resume ~prev:!last sched ~shared in
    if k > 0 then begin
      (* the first [k] choices are in place: the trail starts with them
         and the policy goes on from the script's [k]-th *)
      trail := List.rev (Array.to_list (Array.sub !last_trail 0 k));
      Sched.set_choose sched
        (Policy.scripted ~script:(List.filteri (fun j _ -> j >= k) !script)
           ~trail)
    end;
    last := Some sched;
    Sched.set_park_on_yield sched true;
    let reason = Sched.run ~max_steps sched in
    let depth = List.length !trail in
    if depth > !max_depth then max_depth := depth;
    (match reason with
    | Sched.Quiescent | Sched.Condition_met -> begin
        incr runs;
        emit_run ~mode:"dfs" ~idx:(!runs + !pruned) ~depth ~reason:"quiescent";
        try check sched
        with e ->
          raise
            (Violation
               { cx_schedule = Indices (List.rev_map fst !trail);
                 cx_note = note; cx_steps = Sched.steps sched; cx_exn = e })
      end
    | Sched.Budget_exhausted ->
        incr pruned;
        emit_run ~mode:"dfs" ~idx:(!runs + !pruned) ~depth ~reason:"pruned");
    (* Compute the next schedule: backtrack to the deepest choice point
       with an unexplored sibling. The trail was built most-recent-first. *)
    let arr = Array.of_list (List.rev !trail) in
    last_trail := arr;
    let next = ref None in
    for i = Array.length arr - 1 downto 0 do
      if !next = None then
        let choice, degree = arr.(i) in
        if choice + 1 < degree then next := Some i
    done;
    (match !next with
    | None ->
        exhausted := true;
        continue_ := false
    | Some i ->
        let fresh =
          List.init (i + 1) (fun j -> if j = i then fst arr.(j) + 1 else fst arr.(j))
        in
        script := fresh);
    if !runs + !pruned >= max_runs then continue_ := false
  done;
  let r =
    { runs = !runs; pruned = !pruned; exhausted = !exhausted; blocked = 0;
      races = 0; max_depth = !max_depth }
  in
  emit_stats ~mode:"dfs" r;
  r

(* ---------------- DPOR ---------------- *)

(* Two footprints conflict iff they touch the same register and at least
   one of them writes it. Yields and spawn prefixes ([A_none]) conflict
   with nothing; steps of the same fiber are always dependent through
   program order (handled separately). *)
let conflict (a : Sched.footprint) (b : Sched.footprint) : bool =
  match (a, b) with
  | Sched.A_none, _ | _, Sched.A_none | Sched.A_read _, Sched.A_read _ -> false
  | ( (Sched.A_read ra | Sched.A_write ra | Sched.A_update ra),
      (Sched.A_read rb | Sched.A_write rb | Sched.A_update rb) ) ->
      ra.Register.id = rb.Register.id

(* Raised by the DPOR policy when every enabled fiber is in the sleep
   set: the continuation of this schedule only commutes with already
   explored ones, so the run is abandoned as redundant. *)
exception Sleep_blocked

(* Raised under a preemption bound when every non-sleeping enabled fiber
   would need a preemption the budget no longer allows: the continuation
   lies outside the bounded space, so the run counts as pruned. *)
exception Preempt_blocked

(* Sets of fibers are [int] bitsets: bit [q] stands for fid [q], so fids
   0 .. [max_fibers - 1] fit in one non-negative int. *)
let max_fibers = 62

let bit q = 1 lsl q
let mem q s = s land (1 lsl q) <> 0

(* The smallest fid in [s] that is at least [q], or -1. Choices walk
   their sets upwards, in the ascending-fid order the explorer has
   always used: which fiber the rotation picks and which backtrack
   candidate goes first decide the order schedules are explored in. *)
let rec next_fid s q =
  if s lsr q = 0 then -1 else if mem q s then q else next_fid s (q + 1)

let rec popcount s = if s = 0 then 0 else 1 + popcount (s land (s - 1))

(* One node per step of the current execution prefix. [nd_backtrack] is
   the set of fiber ids scheduled for exploration from this state (seeded
   with the first choice, grown by race detection); [nd_done] the ones
   whose subtrees are complete; [nd_sleep] the sleep set on entry for the
   current run. [nd_enabled] is recorded for the "else add all enabled"
   arm of the backtrack rule. All four are fid bitsets.

   The rest is the step's dependency bookkeeping, kept in the node so
   that a run resuming at a later node restores it instead of recomputing
   it over the shared prefix. [nd_clock] is the step's vector clock, a
   row reused by every run that reaches this depth: entry [q] is the
   latest step of fiber [q] that happens-before it, [-1] if none (and
   every entry from the run's clock width on is [-1]). The other fields
   chain each step to the previous step of its fiber and to the previous
   access to its register, and name that register's latest write, so a
   new access finds its race candidates — the last write and the reads
   since — by following the chain. *)
type node = {
  mutable nd_chosen : int;
  mutable nd_backtrack : int;
  mutable nd_done : int;
  mutable nd_sleep : int;
  mutable nd_enabled : int;
  mutable nd_alpha : Sched.footprint; (* footprint the chosen step executed *)
  mutable nd_preempts : int; (* preemptions consumed up to and incl. this step *)
  mutable nd_width : int; (* the run's clock width after this step: 1 + its largest fid yet *)
  nd_clock : int array;
  mutable nd_clock_used : int; (* entries of [nd_clock] written by some run *)
  mutable nd_prev_fiber : int; (* the chosen fiber's previous step, or -1 *)
  mutable nd_reg : int; (* the register id the step accessed, or -1 *)
  mutable nd_prev_reg : int; (* the previous access to that register, or -1 *)
  mutable nd_last_write : int; (* its latest write up to this step, or -1 *)
}

let fresh_node () =
  { nd_chosen = -1; nd_backtrack = 0; nd_done = 0; nd_sleep = 0;
    nd_enabled = 0; nd_alpha = Sched.A_none; nd_preempts = 0; nd_width = 0;
    nd_clock = Array.make max_fibers (-1); nd_clock_used = 0;
    nd_prev_fiber = -1; nd_reg = -1; nd_prev_reg = -1; nd_last_write = -1 }

(* [dst] := [dst] ⊔ [src] over the first [width] entries. *)
let join_into (dst : int array) (src : int array) width =
  for q = 0 to width - 1 do
    if src.(q) > dst.(q) then dst.(q) <- src.(q)
  done

(* The index of fiber [q] in [ready], from [i] on: the one lookup a
   replayed step makes. *)
let rec index_of q (ready : Sched.fiber array) ~at i =
  if i >= Array.length ready then
    raise
      (Replay_diverged { at; reason = Printf.sprintf "fiber %d not ready" q })
  else if ready.(i).Sched.fid = q then i
  else index_of q ready ~at (i + 1)

let dpor ~(make : Policy.t -> Sched.t) ~(check : Sched.t -> unit)
    ?(max_steps = 2_000) ?(max_runs = 200_000) ?max_preempts ?(note = "") () :
    result =
  (* The execution prefix is [!stack.(0 .. !len - 1)]; the records past
     [!len] are spares that the next pushes overwrite. *)
  let stack = ref (Array.init 256 (fun _ -> fresh_node ())) in
  let len = ref 0 in
  let push c ~sleep ~enabled =
    if !len = Array.length !stack then begin
      let old = !stack in
      stack :=
        Array.init (2 * !len) (fun i ->
            if i < !len then old.(i) else fresh_node ())
    end;
    let nd = !stack.(!len) in
    nd.nd_chosen <- c;
    nd.nd_backtrack <- bit c;
    nd.nd_done <- 0;
    nd.nd_sleep <- sleep;
    nd.nd_enabled <- enabled;
    nd.nd_alpha <- Sched.A_none;
    nd.nd_preempts <- 0;
    incr len;
    nd
  in
  let plan_len = ref 0 in
  (* forced prefix: nodes [0, plan_len) replay their recorded choice *)
  (* Preemption accounting (CHESS-style context bounding): scheduling
     [c] at node [d] is a preemption iff the previous step's fiber is
     still enabled, was not at a voluntary switch point (its executed
     footprint was a real access, not a yield/spawn [A_none]), and
     [c] is a different fiber. Voluntary switch points branch freely. *)
  let cost d c enabled =
    if d = 0 then 0
    else begin
      let pv = !stack.(d - 1) in
      let involuntary =
        match pv.nd_alpha with Sched.A_none -> false | _ -> true
      in
      if c <> pv.nd_chosen && involuntary && mem pv.nd_chosen enabled
      then pv.nd_preempts + 1
      else pv.nd_preempts
    end
  in
  let afford d c enabled =
    match max_preempts with None -> true | Some p -> cost d c enabled <= p
  in
  (* The smallest fid of [s] at least [q] that [d] can afford, or -1. *)
  let rec first_affordable d s enabled q =
    let q = next_fid s q in
    if q < 0 || afford d q enabled then q
    else first_affordable d s enabled (q + 1)
  in
  let runs = ref 0 and pruned = ref 0 and blocked = ref 0 in
  let races = ref 0 in
  let max_depth = ref 0 in
  let exhausted = ref false in
  let continue_ = ref true in
  (* Race detection: an earlier conflicting access, step [i] of fiber
     [q], not ordered before this step of [c] (whose fiber's previous
     clock is [cp]) is a reversible race — the pre-state of step [i]
     must also try running [c] (or, if [c] was not enabled there, every
     enabled fiber). *)
  let race cp c i q =
    if not (q = c || cp.(q) >= i) then begin
      let ni = !stack.(i) in
      let want = if mem c ni.nd_enabled then bit c else ni.nd_enabled in
      let fresh = want land lnot ni.nd_backtrack in
      ni.nd_backtrack <- ni.nd_backtrack lor fresh;
      races := !races + popcount fresh
    end
  in
  (* Per-run dependency state. Steps below [!replay_to] only replay their
     recorded fid (a fresh system catching up with the prefix); the
     rest is as the run's first bookkept step [!replay_to] found it,
     restored from the nodes when the run begins. *)
  let depth = ref 0 in
  let replay_to = ref 0 in
  let cur_sleep = ref 0 in
  let last_rot = ref (-1) in
  let width = ref 0 in (* clock width: 1 + the largest fid seen this run *)
  let slot = Array.make max_fibers 0 in (* fid -> index in [ready] *)
  let fiber_last = Array.make max_fibers (-1) in (* fid -> its latest step *)
  let no_clock = Array.make max_fibers (-1) in
  let reg_last = ref [||] in (* Register.id -> its latest access *)
  let reg_latest id =
    let n = Array.length !reg_last in
    if id >= n then begin
      let bigger = Array.make (max (id + 1) (2 * n)) (-1) in
      Array.blit !reg_last 0 bigger 0 n;
      reg_last := bigger
    end;
    !reg_last.(id)
  in
  (* Take back what step [i] did to [fiber_last] and [reg_last]; newest
     step first, so they return to what they were before step [i]. *)
  let unlink i =
    let nd = !stack.(i) in
    fiber_last.(nd.nd_chosen) <- nd.nd_prev_fiber;
    if nd.nd_reg >= 0 then !reg_last.(nd.nd_reg) <- nd.nd_prev_reg
  in
  let rotate s =
    let q = next_fid s (!last_rot + 1) in
    if q >= 0 then q else next_fid s 0
  in
  let choose (_sched : Sched.t) (ready : Sched.fiber array) : int =
    let d = !depth in
    if d < !replay_to then begin
      depth := d + 1;
      index_of !stack.(d).nd_chosen ready ~at:d 0
    end
    else begin
      let enabled = ref 0 in
      for i = 0 to Array.length ready - 1 do
        let q = ready.(i).Sched.fid in
        if q >= max_fibers then
          invalid_arg
            (Printf.sprintf
               "Explore.dpor: fiber id %d is beyond the %d-fiber limit (fids \
                0-%d)"
               q max_fibers (max_fibers - 1));
        if q >= !width then width := q + 1;
        slot.(q) <- i;
        enabled := !enabled lor bit q
      done;
      let enabled = !enabled in
      (* sleep members that got disabled are dropped (conservative:
         re-exploring them elsewhere is sound, just redundant) *)
      let sleep_in = !cur_sleep land enabled in
      let nd =
        if d < !plan_len then begin
          (* the branch node: the run's first bookkept step runs its new
             choice from the state the last run left there *)
          let nd = !stack.(d) in
          nd.nd_sleep <- sleep_in;
          nd.nd_enabled <- enabled;
          nd
        end
        else begin
          let free = enabled land lnot sleep_in in
          if free = 0 then raise Sleep_blocked;
          let c =
            match max_preempts with
            | None ->
                (* default choice: rotate over the non-sleeping enabled
                   fibers so base runs are fair and reach quiescence *)
                rotate free
            | Some _ ->
                let affordable = ref 0 in
                let q = ref (first_affordable d free enabled 0) in
                while !q >= 0 do
                  affordable := !affordable lor bit !q;
                  q := first_affordable d free enabled (!q + 1)
                done;
                let affordable = !affordable in
                if affordable = 0 then raise Preempt_blocked;
                (* prefer running the previous fiber on (preemptions
                   cost budget); rotate freely at voluntary points *)
                let pv =
                  if d = 0 then -1
                  else
                    let pv = !stack.(d - 1) in
                    match pv.nd_alpha with
                    | Sched.A_none -> -1
                    | _ -> pv.nd_chosen
                in
                if pv >= 0 && mem pv affordable then pv else rotate affordable
          in
          push c ~sleep:sleep_in ~enabled
        end
      in
      let c = nd.nd_chosen in
      last_rot := c;
      if not (mem c enabled) then
        raise (Replay_diverged { at = d; reason = "planned fiber not ready" });
      let alpha = ready.(slot.(c)).Sched.next_access in
      nd.nd_alpha <- alpha;
      nd.nd_preempts <- cost d c nd.nd_enabled;
      let w = !width in
      nd.nd_width <- w;
      (* The step's clock starts as [c]'s previous one ([cp]); then it
         joins everything this step races with or follows, and the
         access goes on its register's chain. *)
      let prev = fiber_last.(c) in
      let cp = if prev >= 0 then !stack.(prev).nd_clock else no_clock in
      let vc = nd.nd_clock in
      Array.blit cp 0 vc 0 w;
      if nd.nd_clock_used > w then Array.fill vc w (nd.nd_clock_used - w) (-1);
      nd.nd_clock_used <- w;
      nd.nd_prev_fiber <- prev;
      fiber_last.(c) <- d;
      (match alpha with
      | Sched.A_none -> nd.nd_reg <- -1
      | Sched.A_read r | Sched.A_write r | Sched.A_update r ->
          let id = r.Register.id in
          let latest = reg_latest id in
          let lw = if latest >= 0 then !stack.(latest).nd_last_write else -1 in
          if lw >= 0 then begin
            let wn = !stack.(lw) in
            race cp c lw wn.nd_chosen;
            join_into vc wn.nd_clock w
          end;
          (match alpha with
          | Sched.A_read _ -> nd.nd_last_write <- lw
          | _ ->
              (* a write also races with every read since [lw] *)
              let i = ref latest in
              while !i <> lw do
                let rn = !stack.(!i) in
                race cp c !i rn.nd_chosen;
                join_into vc rn.nd_clock w;
                i := rn.nd_prev_reg
              done;
              nd.nd_last_write <- d);
          nd.nd_reg <- id;
          nd.nd_prev_reg <- latest;
          !reg_last.(id) <- d);
      vc.(c) <- d;
      (* Sleep-set propagation: siblings already explored from this node
         join the sleep set; fibers whose pending step depends on the
         executed one wake up. *)
      let out = (sleep_in lor nd.nd_done) land enabled in
      let sleep = ref 0 in
      let q = ref (next_fid out 0) in
      while !q >= 0 do
        if not (conflict alpha ready.(slot.(!q)).Sched.next_access) then
          sleep := !sleep lor bit !q;
        q := next_fid out (!q + 1)
      done;
      cur_sleep := !sleep;
      depth := d + 1;
      slot.(c)
    end
  in
  let last = ref None in
  while !continue_ do
    (* The new run shares the prefix [0, d) with the last one and
       branches at node [d]: restore the state that prefix leaves. *)
    let d = max 0 (!plan_len - 1) in
    cur_sleep := if !plan_len > 0 then !stack.(d).nd_sleep else 0;
    last_rot := if d > 0 then !stack.(d - 1).nd_chosen else -1;
    width := if d > 0 then !stack.(d - 1).nd_width else 0;
    let sched = make choose in
    depth := resume ~prev:!last sched ~shared:d;
    replay_to := d;
    last := Some sched;
    Sched.set_park_on_yield sched true;
    (match Sched.run ~max_steps sched with
    | exception Sleep_blocked ->
        incr blocked;
        emit_run ~mode:"dpor" ~idx:(!runs + !pruned + !blocked) ~depth:!depth
          ~reason:"blocked"
    | exception Preempt_blocked ->
        incr pruned;
        emit_run ~mode:"dpor" ~idx:(!runs + !pruned + !blocked) ~depth:!depth
          ~reason:"pruned"
    | Sched.Quiescent | Sched.Condition_met -> begin
        incr runs;
        emit_run ~mode:"dpor" ~idx:(!runs + !pruned + !blocked) ~depth:!depth
          ~reason:"quiescent";
        try check sched
        with e ->
          let fids = List.init !len (fun i -> (!stack.(i)).nd_chosen) in
          raise
            (Violation
               { cx_schedule = Fids fids; cx_note = note;
                 cx_steps = Sched.steps sched; cx_exn = e })
      end
    | Sched.Budget_exhausted ->
        incr pruned;
        emit_run ~mode:"dpor" ~idx:(!runs + !pruned + !blocked) ~depth:!depth
          ~reason:"pruned");
    if !depth > !max_depth then max_depth := !depth;
    (* Backtrack: deepest node with an unexplored, non-sleeping
       backtrack candidate; everything below it is discarded, and each
       node passed on the way, the branch node included, gives back its
       bookkeeping. *)
    let rec back d =
      if d < 0 then begin
        exhausted := true;
        continue_ := false
      end
      else begin
        let ndd = !stack.(d) in
        unlink d;
        ndd.nd_done <- ndd.nd_done lor bit ndd.nd_chosen;
        let cands =
          ndd.nd_backtrack land lnot ndd.nd_done land lnot ndd.nd_sleep
        in
        let c = first_affordable d cands ndd.nd_enabled 0 in
        if c >= 0 then begin
          ndd.nd_chosen <- c;
          len := d + 1;
          plan_len := d + 1
        end
        else begin
          len := d;
          back (d - 1)
        end
      end
    in
    back (!len - 1);
    if !continue_ && !runs + !pruned + !blocked >= max_runs then
      continue_ := false
  done;
  let r =
    { runs = !runs; pruned = !pruned; exhausted = !exhausted;
      blocked = !blocked; races = !races; max_depth = !max_depth }
  in
  emit_stats ~mode:"dpor" r;
  r

(* ---------------- Swarm ---------------- *)

let swarm ~(make : Policy.t -> Sched.t) ~(check : Sched.t -> unit)
    ?(max_steps = 2_000_000) ?(note = "") ~seeds () : result =
  let runs = ref 0 in
  let pruned = ref 0 in
  let max_depth = ref 0 in
  let last = ref None in
  List.iter
    (fun seed ->
      let sched = make (Policy.random ~seed) in
      ignore (resume ~prev:!last sched ~shared:0 : int);
      last := Some sched;
      Sched.set_park_on_yield sched true;
      let reason = Sched.run ~max_steps sched in
      let depth = Sched.steps sched in
      if depth > !max_depth then max_depth := depth;
      match reason with
      | Sched.Quiescent | Sched.Condition_met -> begin
          incr runs;
          emit_run ~mode:"swarm" ~idx:(!runs + !pruned) ~depth
            ~reason:"quiescent";
          try check sched
          with e ->
            raise
              (Violation
                 { cx_schedule = Seed seed; cx_note = note;
                   cx_steps = depth; cx_exn = e })
        end
      | Sched.Budget_exhausted ->
          incr pruned;
          emit_run ~mode:"swarm" ~idx:(!runs + !pruned) ~depth ~reason:"pruned")
    seeds;
  let r =
    { runs = !runs; pruned = !pruned; exhausted = false; blocked = 0;
      races = 0; max_depth = !max_depth }
  in
  emit_stats ~mode:"swarm" r;
  r

(* ---------------- Replay ---------------- *)

(* Re-execute one schedule and re-run the check: the one-call
   reproduction path for a serialised counterexample. [Ok ()] means the
   check passed; [Error e] reproduces the violation. A fid trail must be
   used up exactly: one that ends before the run does, or outlives it,
   does not describe this run. *)
let replay ~(make : Policy.t -> Sched.t) ~(check : Sched.t -> unit)
    ?(max_steps = 1_000_000) (s : schedule) : (unit, exn) Stdlib.result =
  let remaining = ref (match s with Fids fids -> fids | Seed _ | Indices _ -> []) in
  let at = ref 0 in
  let sched =
    match s with
    | Seed seed -> make (Policy.random ~seed)
    | Indices script ->
        let trail = ref [] in
        make (Policy.scripted ~script ~trail)
    | Fids _ ->
        make (fun _sched ready ->
            match !remaining with
            | [] ->
                raise
                  (Replay_diverged
                     { at = !at; reason = "trail exhausted before quiescence" })
            | q :: rest ->
                remaining := rest;
                let i = index_of q ready ~at:!at 0 in
                incr at;
                i)
  in
  ignore (resume ~prev:None sched ~shared:0 : int);
  Sched.set_park_on_yield sched true;
  let stop = Sched.run ~max_steps sched in
  (match !remaining with
  | [] -> ()
  | left ->
      raise
        (Replay_diverged
           { at = !at;
             reason =
               Printf.sprintf "trail outlives the run (%s with %d fids left)"
                 (match stop with
                 | Sched.Budget_exhausted -> "step budget spent"
                 | Sched.Quiescent | Sched.Condition_met -> "quiescent")
                 (List.length left) }));
  match check sched with () -> Ok () | exception e -> Error e
