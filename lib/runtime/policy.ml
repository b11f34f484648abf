(* Scheduling policies.

   A policy picks the next fiber to step among the ready ones. All
   policies are deterministic functions of their construction arguments, so
   a whole run replays from (program, policy).

   Sched.run hands every call the same reused buffer, refilled on the
   next step: the ready array is valid only until the policy returns, so
   a policy reads it and never keeps it. None of the policies below
   does. *)

open Lnd_support

type t = Sched.t -> Sched.fiber array -> int

(* Strict rotation over fiber ids: every ready fiber is stepped within one
   revolution, which gives the strongest fairness. *)
let round_robin () : t =
  let last = ref (-1) in
  fun _sched ready ->
    let n = Array.length ready in
    (* Pick the ready fiber with the smallest fid strictly greater than
       [last]; wrap around if none. *)
    let best = ref (-1) in
    let best_wrap = ref 0 in
    for i = 0 to n - 1 do
      let fid = ready.(i).Sched.fid in
      if fid > !last && (!best = -1 || fid < ready.(!best).Sched.fid) then
        best := i;
      if ready.(i).Sched.fid < ready.(!best_wrap).Sched.fid then best_wrap := i
    done;
    let i = if !best >= 0 then !best else !best_wrap in
    last := ready.(i).Sched.fid;
    i

(* Uniformly random among ready fibers; fair with probability 1. *)
let random ~seed : t =
  let rng = Rng.create seed in
  fun _sched ready -> Rng.int rng (Array.length ready)

(* Random, but steps fibers of [slow] pids only with probability
   1/(penalty+1): models processes that are much slower than others
   (asynchrony stress) while remaining fair. *)
let random_biased ~seed ~slow ~penalty : t =
  let rng = Rng.create seed in
  fun _sched ready ->
    let n = Array.length ready in
    let i = Rng.int rng n in
    if List.mem ready.(i).Sched.pid slow && Rng.int rng (penalty + 1) > 0 then
      (* retry once uniformly; keeps fairness with probability 1 *)
      Rng.int rng n
    else i

(* Step only the ready fibers [ok] accepts: hand [inner] those, in spawn
   order, and map its pick back. When [ok] accepts every ready fiber,
   [inner] gets the very array Sched.run handed over; otherwise a fresh
   one. Either way it sees the same fibers in the same order a run
   restricted to them would hand it, so it makes the same draws. This is
   how a phased scenario keeps processes asleep. *)
let only (ok : Sched.t -> Sched.fiber -> bool) (inner : t) : t =
 fun sched ready ->
  let n = Array.length ready in
  let picks = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if ok sched ready.(i) then begin
      picks.(!k) <- i;
      incr k
    end
  done;
  if !k = n then inner sched ready
  else if !k = 0 then invalid_arg "Policy.only: no ready fiber is accepted"
  else picks.(inner sched (Array.init !k (fun j -> ready.(picks.(j)))))

(* Replay an explicit choice sequence (indices into the ready array,
   ordered by fid); used by the systematic explorer. Past the end of the
   script, fall back to index 0 and record the branching degree so the
   explorer can enumerate siblings. *)
let scripted ~(script : int list) ~(trail : (int * int) list ref) : t =
  let remaining = ref script in
  fun _sched ready ->
    (* Sort indices by fid for a canonical ordering. *)
    let order = Array.init (Array.length ready) (fun i -> i) in
    Array.sort
      (fun a b -> compare ready.(a).Sched.fid ready.(b).Sched.fid)
      order;
    let degree = Array.length ready in
    let choice =
      match !remaining with
      | c :: rest ->
          remaining := rest;
          if c < degree then c else degree - 1
      | [] -> 0
    in
    trail := (choice, degree) :: !trail;
    order.(choice)
