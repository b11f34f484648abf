(* Byzantine adversaries as pure state machines.

   Every attack on Algorithms 1 and 2 is one loop: a process that may
   write only its own registers answers each asker's fresh round with a
   chosen claim. [responder] is that loop, written once as a resumable
   Machine program over a core's register names; a strategy is a
   parameterisation of it (what it does to its owned registers each
   round, what it claims to each asker), with its bookkeeping threaded
   functionally. The genome interpreters below (see Byz_script for the
   gene layout) and every named strategy of Byz_sticky/Byz_verifiable are
   such parameterisations. The workload plan (Lnd_parallel.Diff) runs
   any of them on the simulator, and the domains backend runs the same
   genomes with real preemption, so a scripted adversary misbehaves
   identically — access for access — on both backends. *)

open Lnd_support
open Machine

(* Total decoding: gene [i] of the (cycling) genome, reduced mod 3.
   0 = silent/deny, 1 = claim the scripted value, 2 = honest. *)
let[@lnd.pure] gene (genome : int array) i : int =
  let len = Array.length genome in
  if len = 0 then 0 else abs genome.(i mod len) mod 3

module PidMap = Map.Make (Int)

(* Each round: [posture] (the strategy's side effects on its owned
   registers), then, for each asker k = 1..n-1 (k <> pid, [asks k]) in
   ascending order, read C_k and, on a round not answered yet, write
   [reply]'s content to R_{pid,k}. A round that answered nobody ends in
   a yield. [prev] is the last round answered per asker. *)
let[@lnd.pure] responder ~n ~pid ~(counter : int -> 'reg)
    ~(mailbox : int -> 'reg) ?(asks = fun _ -> true) ?(posture = ret)
    ~(reply : 's -> asker:int -> round:int -> ('reg, 's * Univ.t) prog)
    (s : 's) : ('reg, unit) prog =
  let rec round prev s =
    let* s = posture s in
    let rec answer k prev s answered =
      if k >= n then ret (prev, s, answered)
      else if k = pid || not (asks k) then answer (k + 1) prev s answered
      else
        let* cku = read (counter k) in
        let ck = Univ.prj_default Codecs.counter ~default:0 cku in
        let last = match PidMap.find_opt k prev with Some c -> c | None -> 0 in
        if ck > last then
          let* s, u = reply s ~asker:k ~round:ck in
          let* () = write (mailbox k) u in
          answer (k + 1) (PidMap.add k ck prev) s true
        else answer (k + 1) prev s answered
    in
    let* prev, s, answered = answer 1 prev s false in
    if answered then round prev s
    else
      let* () = yield in
      round prev s
  in
  round PidMap.empty s

(* ---------------- Sticky register (Algorithm 2) ---------------- *)

(* State: (replies sent, E_pid settled, R_pid settled). *)
let[@lnd.pure] sticky_prog ~n ~pid ~(genome : int array) ~(value : Value.t) :
    (Lnd_sticky.Sticky_core.reg, unit) prog =
  let open Lnd_sticky.Sticky_core in
  (* a posture gene on an owned register, settled once: claim [value],
     honestly copy the writer's echo once it appears, or stay silent *)
  let settle reg g =
    match gene genome g with
    | 1 ->
        let* () = write reg (enc_vopt (Some value)) in
        ret true
    | 2 -> (
        let* u = read (E 0) in
        match dec_vopt u with
        | Some _ as e1 ->
            let* () = write reg (enc_vopt e1) in
            ret true
        | None -> ret false)
    | _ -> ret true
  in
  responder ~n ~pid
    ~counter:(fun k -> C k)
    ~mailbox:(fun k -> Rjk (pid, k))
    ~posture:(fun ((replies, echoed, witnessed) as s) ->
      if echoed && witnessed then ret s
      else
        let* echoed = if echoed then ret true else settle (E pid) 0 in
        let* witnessed = if witnessed then ret true else settle (R pid) 1 in
        ret (replies, echoed, witnessed))
    ~reply:(fun (replies, echoed, witnessed) ~asker:_ ~round ->
      let* payload =
        match gene genome (2 + replies) with
        | 1 -> ret (Some value)
        | 2 ->
            let* u = read (R pid) in
            ret (dec_vopt u)
        | _ -> ret None
      in
      ret ((replies + 1, echoed, witnessed), enc_stamped payload round))
    (0, false, false)

(* ---------------- Verifiable register (Algorithm 1) ---------------- *)

(* State: (replies sent, R* settled, R_pid settled). Gene 0 acts on R*
   only when it claims and only at its owner, the writer. *)
let[@lnd.pure] verifiable_prog ~n ~pid ~(genome : int array) ~(value : Value.t)
    : (Lnd_verifiable.Verifiable_core.reg, unit) prog =
  let open Lnd_verifiable.Verifiable_core in
  let witness () =
    match gene genome 1 with
    | 1 ->
        let* () = write (R pid) (enc_vset (Value.Set.singleton value)) in
        ret true
    | 2 ->
        let* u = read (R 0) in
        let s = dec_vset u in
        if not (Value.Set.is_empty s) then
          let* () = write (R pid) (enc_vset s) in
          ret true
        else ret false
    | _ -> ret true
  in
  responder ~n ~pid
    ~counter:(fun k -> C k)
    ~mailbox:(fun k -> Rjk (pid, k))
    ~posture:(fun ((replies, announced, witnessed) as s) ->
      if announced && witnessed then ret s
      else
        let* () =
          if (not announced) && pid = 0 && gene genome 0 = 1 then
            write Rstar (enc_value value)
          else ret ()
        in
        let* witnessed = if witnessed then ret true else witness () in
        ret (replies, true, witnessed))
    ~reply:(fun (replies, announced, witnessed) ~asker:_ ~round ->
      let* payload =
        match gene genome (2 + replies) with
        | 1 -> ret (Value.Set.singleton value)
        | 2 ->
            let* u = read (R pid) in
            ret (dec_vset u)
        | _ -> ret Value.Set.empty
      in
      ret ((replies + 1, announced, witnessed), enc_stamped payload round))
    (0, false, false)
