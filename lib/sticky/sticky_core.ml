(* Algorithm 2 as a pure state machine (see Lnd_support.Machine).

   This module is the protocol: every register access of the writer's
   WRITE, a reader's READ and the Help daemon, in exactly the order the
   paper (and the pre-refactor inlined implementation) performs them —
   but expressed as a resumable program over abstract register names,
   with no scheduler, Obs or transport calls. Sticky.write/read/help
   drive these programs on the simulator (Lnd_runtime.Drive); the
   domains backend (Lnd_parallel) drives the same programs with real
   preemption. The access order is load-bearing: the differential
   suite's golden baselines and the DPOR exhaustion counts both pin
   it. *)

open Lnd_support
open Machine

(* Register names; the driver maps them to concrete cells. *)
type reg =
  | E of int  (** echo register E_i, owner p_i *)
  | R of int  (** witness register R_i, owner p_i *)
  | Rjk of int * int  (** R_{j,k}: owner p_j, single reader p_k (k >= 1) *)
  | C of int  (** round counter C_k, owner p_k (k >= 1) *)

(* Defensive decoders: ill-typed content reads as the initial value. *)
let[@lnd.pure] dec_vopt u = Univ.prj_default Codecs.value_opt ~default:None u

let[@lnd.pure] dec_stamped u =
  Univ.prj_default Codecs.vopt_stamped ~default:(None, 0) u

let[@lnd.pure] dec_counter u = Univ.prj_default Codecs.counter ~default:0 u
let[@lnd.pure] enc_vopt v = Univ.inj Codecs.value_opt v
let[@lnd.pure] enc_stamped u c = Univ.inj Codecs.vopt_stamped (u, c)
let[@lnd.pure] enc_counter c = Univ.inj Codecs.counter c

(* Count, over an array of optional values, how many equal [v]. *)
let[@lnd.pure] count_eq (arr : Value.t option array) (v : Value.t) : int =
  Array.fold_left
    (fun acc u -> match u with Some x when Value.equal x v -> acc + 1 | _ -> acc)
    0 arr

(* The (unique, per Lemma 98-style counting) value reaching [threshold]
   copies in [arr], if any. *)
let[@lnd.pure] value_with_quorum (arr : Value.t option array) ~threshold :
    Value.t option =
  let found = ref None in
  Array.iter
    (fun u ->
      match (u, !found) with
      | Some v, None -> if count_eq arr v >= threshold then found := Some v
      | _ -> ())
    arr;
  !found

(* ---------------- Register layout ---------------- *)

let e_name = names (Printf.sprintf "E_%d")
let r_name = names (Printf.sprintf "R_%d")
let rjk_name = names2 (Printf.sprintf "R_{%d,%d}")
let c_name = names (Printf.sprintf "C_%d")

(* Allocate one instance's registers through the driver's [alloc] and
   map the names onto them. The allocation order — E_i, R_i, R_{j,k}
   (row-major, k >= 1), C_k — fixes the simulator's register ids, which
   DPOR indexes; the map is an array lookup that allocates nothing. *)
let[@lnd.pure] layout ~n (alloc : 'c allocator) : reg -> 'c =
  let bot = enc_vopt None in
  let e =
    Array.init n (fun i -> alloc ~name:(e_name i) ~owner:i ~init:bot ())
  in
  let r =
    Array.init n (fun i -> alloc ~name:(r_name i) ~owner:i ~init:bot ())
  in
  let rjk =
    Array.init n (fun j ->
        Array.init n (fun k ->
            if k = 0 then e.(0) (* placeholder, never used *)
            else
              alloc ~name:(rjk_name j k) ~owner:j ~single_reader:k
                ~init:(enc_stamped None 0) ()))
  in
  let c =
    Array.init n (fun k ->
        if k = 0 then e.(0) (* placeholder, never used *)
        else
          alloc ~name:(c_name k) ~owner:k ~init:(enc_counter 0) ())
  in
  function
  | E i -> e.(i) | R i -> r.(i) | Rjk (j, k) -> rjk.(j).(k) | C k -> c.(k)

(* Read registers [mk 0 .. mk (n-1)] in ascending order. *)
let[@lnd.pure] read_all ~n (mk : int -> reg) (dec : Univ.t -> 'b) :
    (reg, 'b array) prog =
  let rec go i acc =
    if i >= n then ret (Array.of_list (List.rev acc))
    else
      let* u = read (mk i) in
      go (i + 1) (dec u :: acc)
  in
  go 0 []

(* ---------------- Writer (p0): WRITE(v), lines 1-6 ---------------- *)

let[@lnd.pure] write_prog ~n ~(q : Quorum.t) (v : Value.t) : (reg, unit) prog =
  (* line 1: a second write is a no-op returning done *)
  let* e0 = read (E 0) in
  if dec_vopt e0 <> None then ret ()
  else
    (* line 2 *)
    let* () = write (E 0) (enc_vopt (Some v)) in
    (* lines 3-5: wait until n-f processes witness v; yield between
       poll passes — the wait is a voluntary scheduling point *)
    let rec wait () =
      let* rs = read_all ~n (fun i -> R i) dec_vopt in
      if Quorum.has_availability q (count_eq rs v) then ret ()
      else
        let* () = yield in
        wait ()
    in
    wait ()

(* The Section 7.1 ablation of WRITE: lines 1-2 without the lines 3-5
   wait. "Without this wait, a process may invoke a READ after a
   WRITE(v) completes and get back ⊥" (test A2, bench T8). *)
let[@lnd.pure] write_nowait_prog (v : Value.t) : (reg, unit) prog =
  let* e0 = read (E 0) in
  if dec_vopt e0 <> None then ret () else write (E 0) (enc_vopt (Some v))

(* ---------------- Readers: READ(), lines 7-22 ---------------- *)

module PidSet = Set.Make (Int)
module PidMap = Map.Make (Int)

(* The reader's persistent round counter [ck] is threaded through: the
   driver owns the mutable reader record and stores the returned value
   back. *)
let[@lnd.pure] read_prog ~n ~(q : Quorum.t) ~pid ~ck :
    (reg, Value.t option * int) prog =
  let rec round set_bot set_val ck =
    (* line 9 *)
    let ck = ck + 1 in
    let* () = write (C pid) (enc_counter ck) in
    (* line 10: S = processes not yet classified *)
    let in_s j = (not (PidSet.mem j set_bot)) && not (PidMap.mem j set_val) in
    (* lines 11-14: poll S until someone answered this round; an
       unsuccessful poll pass is a voluntary scheduling point *)
    let rec poll j =
      if j >= n then
        let* () = yield in
        poll 0
      else if not (in_s j) then poll (j + 1)
      else
        let* u = read (Rjk (j, pid)) in
        let uj, cj = dec_stamped u in
        if cj >= ck then ret (j, uj) else poll (j + 1)
    in
    let* j, uj = poll 0 in
    let set_bot, set_val =
      match uj with
      | Some v ->
          (* lines 15-17 *)
          (PidSet.empty, PidMap.add j v set_val)
      | None ->
          (* lines 18-19 *)
          (PidSet.add j set_bot, set_val)
    in
    (* line 20: some value witnessed by >= n-f processes in set_val? *)
    let counts =
      PidMap.fold
        (fun _ v acc ->
          let cur = try List.assoc v acc with Not_found -> 0 in
          (v, cur + 1) :: List.remove_assoc v acc)
        set_val []
    in
    match
      List.find_opt (fun (_, cnt) -> Quorum.has_availability q cnt) counts
    with
    | Some (v, _) -> ret (Some v, ck)
    | None ->
        (* line 22 *)
        if Quorum.exceeds_faults q (PidSet.cardinal set_bot) then
          ret (None, ck)
        else round set_bot set_val ck
  in
  round PidSet.empty PidMap.empty ck

(* ---------------- Help() — lines 23-40 ---------------- *)

(* Runs forever (the program never returns). [prev], the last counter
   value served per asker (indexed by pid), is never mutated: serving
   askers copies it. A round whose echo and witness are set and that
   finds no asker reads E_pid, R_pid and C_1..C_{n-1}, then yields; that
   idle round is built once per [prev] (Machine.cycle), and a read that
   finds work hands over to lines 25-40 at that point, so the accesses
   come in the same order as a round built afresh each time. *)
let[@lnd.pure] help_prog ~n ~(q : Quorum.t) ~pid : (reg, unit) prog =
  let written u = dec_vopt u <> None in
  (* lines 25-27, given E_pid: echo the writer's value, once *)
  let echo e_pid =
    if written e_pid then ret ()
    else
      let* e1 = read (E 0) in
      match dec_vopt e1 with
      | Some _ as u -> write (E pid) (enc_vopt u)
      | None -> ret ()
  in
  (* lines 28-30, given R_pid: become a witness of a value echoed by
     n-f processes *)
  let witness r_pid =
    if written r_pid then ret ()
    else
      let* es = read_all ~n (fun i -> E i) dec_vopt in
      match value_with_quorum es ~threshold:(Quorum.availability q) with
      | Some v -> write (R pid) (enc_vopt (Some v))
      | None -> ret ()
  in
  (* lines 31-33 from C_k on: the askers with their counters, in pid
     order; [acc] holds those found before C_k, newest first *)
  let rec askers prev k acc =
    if k >= n then ret (List.rev acc)
    else
      let* u = read (C k) in
      let ck = dec_counter u in
      askers prev (k + 1) (if ck > prev.(k) then (k, ck) :: acc else acc)
  in
  let idle_reads =
    Array.init (n + 1) (function 0 -> E pid | 1 -> R pid | i -> C (i - 1))
  in
  let rec idle prev =
    cycle idle_reads (fun ~round ~next i u ->
        match i with
        | 0 ->
            if written u then next
            else
              finish ~round prev
                (let* () = echo u in
                 let* r_pid = read (R pid) in
                 let* () = witness r_pid in
                 askers prev 1 [])
        | 1 ->
            if written u then next
            else finish ~round prev (let* () = witness u in askers prev 1 [])
        | _ ->
            let k = i - 1 and ck = dec_counter u in
            if ck <= prev.(k) then next
            else finish ~round prev (askers prev (k + 1) [ (k, ck) ]))
  (* The rest of a round that found work: serve the askers, if any, and
     go on without yielding; else yield back to the idle [round]. *)
  and finish ~round prev found =
    let* askers = found in
    if askers <> [] then serve prev askers
    else
      let* () = yield in
      round
  and serve prev askers =
    let* () = note (Serving (List.map fst askers)) in
    (* lines 34-36: become a witness of a value with f+1 witnesses *)
    let* () =
      let* r_pid = read (R pid) in
      if written r_pid then ret ()
      else
        let* rs = read_all ~n (fun i -> R i) dec_vopt in
        match value_with_quorum rs ~threshold:(Quorum.one_correct q) with
        | Some v -> write (R pid) (enc_vopt (Some v))
        | None -> ret ()
    in
    (* line 37 *)
    let* rj_u = read (R pid) in
    let rj = dec_vopt rj_u in
    (* lines 38-40 *)
    let rec answer = function
      | [] -> ret ()
      | (k, ck) :: rest ->
          let* () = write (Rjk (pid, k)) (enc_stamped rj ck) in
          answer rest
    in
    let* () = answer askers in
    let served = Array.copy prev in
    List.iter (fun (k, ck) -> served.(k) <- ck) askers;
    let* () = note Served in
    idle served
  in
  idle (Array.make n 0)

(* The Section 7.1 ablation of Help: Algorithm 1's lax witness policy.
   Each round echoes E_0 into E_pid, then copies E_0 into R_pid while
   R_pid is ⊥ (no echo quorum), then reads C_1..C_{n-1} and answers the
   askers from R_pid, or yields. An equivocating writer can then split
   the correct witnesses between two values (test A3). *)
let[@lnd.pure] help_lax_prog ~n ~pid : (reg, unit) prog =
  (* copy E_0 into [r] while [r] is ⊥ *)
  let adopt r =
    let* u = read r in
    if dec_vopt u <> None then ret ()
    else
      let* e0 = read (E 0) in
      match dec_vopt e0 with
      | Some _ as v -> write r (enc_vopt v)
      | None -> ret ()
  in
  let rec askers prev k acc =
    if k >= n then ret (List.rev acc)
    else
      let* u = read (C k) in
      let ck = dec_counter u in
      askers prev (k + 1) (if ck > prev.(k) then (k, ck) :: acc else acc)
  in
  let rec round prev =
    let* () = adopt (E pid) in
    let* () = adopt (R pid) in
    let* found = askers prev 1 [] in
    if found = [] then
      let* () = yield in
      round prev
    else
      let* rj_u = read (R pid) in
      let rj = dec_vopt rj_u in
      let rec answer = function
        | [] -> ret ()
        | (k, ck) :: rest ->
            let* () = write (Rjk (pid, k)) (enc_stamped rj ck) in
            answer rest
      in
      let* () = answer found in
      let served = Array.copy prev in
      List.iter (fun (k, ck) -> served.(k) <- ck) found;
      round served
  in
  round (Array.make n 0)
