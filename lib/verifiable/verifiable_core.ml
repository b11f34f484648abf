(* Algorithm 1 as a pure state machine (see Lnd_support.Machine).

   Every register access of WRITE/SIGN/READ/VERIFY and the Help daemon,
   in exactly the order of the paper (and of the pre-refactor inlined
   implementation), expressed as resumable programs over abstract
   register names — no scheduler, Obs or transport calls.
   Verifiable.write/sign/read/verify/help drive these programs on the
   simulator (Lnd_runtime.Drive); the domains backend (Lnd_parallel)
   drives the same programs with real preemption. The access order is
   load-bearing: the differential suite's golden baselines and the DPOR
   exhaustion counts both pin it. *)

open Lnd_support
open Machine

type reg =
  | Rstar  (** R*: the current value, owner p0 *)
  | R of int  (** witness-set register R_i, owner p_i *)
  | Rjk of int * int  (** R_{j,k}: owner p_j, single reader p_k (k >= 1) *)
  | C of int  (** round counter C_k, owner p_k (k >= 1) *)

module VSet = Value.Set

(* Defensive decoders: ill-typed content reads as the initial value. *)
let[@lnd.pure] dec_value u = Univ.prj_default Codecs.value ~default:Value.v0 u
let[@lnd.pure] dec_vset u = Univ.prj_default Codecs.vset ~default:VSet.empty u

let[@lnd.pure] dec_stamped u =
  Univ.prj_default Codecs.vset_stamped ~default:(VSet.empty, 0) u

let[@lnd.pure] dec_counter u = Univ.prj_default Codecs.counter ~default:0 u
let[@lnd.pure] enc_value v = Univ.inj Codecs.value v
let[@lnd.pure] enc_vset s = Univ.inj Codecs.vset s
let[@lnd.pure] enc_stamped s c = Univ.inj Codecs.vset_stamped (s, c)
let[@lnd.pure] enc_counter c = Univ.inj Codecs.counter c

(* ---------------- Register layout ---------------- *)

let r_name = names (Printf.sprintf "R_%d")
let rjk_name = names2 (Printf.sprintf "R_{%d,%d}")
let c_name = names (Printf.sprintf "C_%d")

(* Allocate one instance's registers through the driver's [alloc] and
   map the names onto them. The allocation order — R*, R_i, R_{j,k}
   (row-major, k >= 1), C_k — fixes the simulator's register ids, which
   DPOR indexes; the map is an array lookup that allocates nothing. *)
let[@lnd.pure] layout ~n (alloc : 'c allocator) : reg -> 'c =
  let rstar = alloc ~name:"R*" ~owner:0 ~init:(enc_value Value.v0) () in
  let r =
    Array.init n (fun i ->
        alloc ~name:(r_name i) ~owner:i ~init:(enc_vset VSet.empty) ())
  in
  let rjk =
    Array.init n (fun j ->
        Array.init n (fun k ->
            if k = 0 then r.(0) (* placeholder, never used *)
            else
              alloc ~name:(rjk_name j k) ~owner:j ~single_reader:k
                ~init:(enc_stamped VSet.empty 0) ()))
  in
  let c =
    Array.init n (fun k ->
        if k = 0 then rstar (* placeholder, never used *)
        else
          alloc ~name:(c_name k) ~owner:k ~init:(enc_counter 0) ())
  in
  function
  | Rstar -> rstar | R i -> r.(i) | Rjk (j, k) -> rjk.(j).(k) | C k -> c.(k)

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

(* ---------------- Writer (p0) ---------------- *)

(* WRITE(v): lines 1-3. The writer's local set r* of written values is
   driver state (it lives in no shared register). *)
let[@lnd.pure] write_prog (v : Value.t) : (reg, unit) prog =
  write Rstar (enc_value v)

(* SIGN(v): lines 4-8. [written] is the writer's local r* set; returns
   true for SUCCESS, false for FAIL (no accesses in the FAIL case). *)
let[@lnd.pure] sign_prog ~(written : VSet.t) (v : Value.t) : (reg, bool) prog =
  if VSet.mem v written then
    let* r1_u = read (R 0) in
    let r1 = dec_vset r1_u in
    let* () = write (R 0) (enc_vset (VSet.add v r1)) in
    ret true
  else ret false

(* ---------------- Readers (p1 .. p(n-1)) ---------------- *)

(* READ(): lines 9-10. *)
let[@lnd.pure] read_prog : (reg, Value.t) prog =
  let* u = read Rstar in
  ret (dec_value u)

module PidSet = Set.Make (Int)

(* VERIFY(v): lines 11-24. Terminates for any correct reader when
   n > 3f (Theorem 40); outside that bound it may loop, so drivers
   running deliberately-broken configurations should bound steps. The
   reader's persistent round counter [ck] is threaded through. *)
let[@lnd.pure] verify_prog ~n ~(q : Quorum.t) ~pid ~ck (v : Value.t) :
    (reg, bool * int) prog =
  let rec round set0 set1 ck =
    (* line 13: announce a new round *)
    let ck = ck + 1 in
    let* () = write (C pid) (enc_counter ck) in
    (* lines 14-17: poll processes outside set0 ∪ set1 until one has
       replied for this round (c_j >= C_k); an unsuccessful poll pass is
       a voluntary scheduling point *)
    let rec poll j =
      if j >= n then
        let* () = yield in
        poll 0
      else if PidSet.mem j set0 || PidSet.mem j set1 then poll (j + 1)
      else
        let* u = read (Rjk (j, pid)) in
        let rj, cj = dec_stamped u in
        if cj >= ck then ret (j, rj) else poll (j + 1)
    in
    let* j, rj = poll 0 in
    let set0, set1 =
      if VSet.mem v rj then
        (* lines 18-20 *)
        (PidSet.empty, PidSet.add j set1)
      else
        (* lines 21-22 *)
        (PidSet.add j set0, set1)
    in
    (* lines 23-24 *)
    if Quorum.has_availability q (PidSet.cardinal set1) then ret (true, ck)
    else if Quorum.exceeds_faults q (PidSet.cardinal set0) then ret (false, ck)
    else round set0 set1 ck
  in
  round PidSet.empty PidSet.empty ck

(* The Section 5.1 strawman VERIFY: "ask all processes whether they are
   now willing to be witnesses of v" in one pass — read every R_j once —
   and return TRUE on f+1 yes. It always terminates, but a later
   strawman can answer FALSE after an earlier one answered TRUE: the
   relay violation Algorithm 1's rounds prevent (test A1). *)
let[@lnd.pure] strawman_verify_prog ~(q : Quorum.t) (v : Value.t) :
    (reg, bool) prog =
  let* rsets = read_all ~n:(Quorum.n q) (fun j -> R j) dec_vset in
  ret
    (Quorum.has_one_correct q
       (Array.fold_left
          (fun cnt s -> if VSet.mem v s then cnt + 1 else cnt)
          0 rsets))

(* ---------------- Help() — lines 25-36 ---------------- *)

(* Runs forever (the program never returns); assists all ongoing VERIFY
   operations by maintaining the witness set R_pid and answering askers
   through R_{pid,k}. [prev], the last counter value served per asker
   (indexed by pid), is never mutated: serving askers copies it. A round
   that finds no asker reads C_1..C_{n-1}, then yields; that idle round
   is built once per [prev] (Machine.cycle), and the first counter that
   shows an asker hands over to lines 27-36 at that point, so the
   accesses come in the same order as a round built afresh each time. *)
let[@lnd.pure] help_prog ~n ~(q : Quorum.t) ~pid : (reg, unit) prog =
  (* line 27 from C_k on, and line 28: the askers with their counters,
     in pid order; [acc] holds those found before C_k, newest first *)
  let rec askers prev k acc =
    if k >= n then ret (List.rev acc)
    else
      let* u = read (C k) in
      let ck = dec_counter u in
      askers prev (k + 1) (if ck > prev.(k) then (k, ck) :: acc else acc)
  in
  let idle_reads = Array.init (n - 1) (fun i -> C (i + 1)) in
  let rec idle prev =
    cycle idle_reads (fun ~round:_ ~next i u ->
        let k = i + 1 and ck = dec_counter u in
        if ck <= prev.(k) then next
        else
          let* askers = askers prev (k + 1) [ (k, ck) ] in
          serve prev askers)
  and serve prev askers =
    let* () = note (Serving (List.map fst askers)) in
    (* line 30: read every witness set *)
    let* rsets = read_all ~n (fun i -> R i) dec_vset in
    (* lines 31-32: become a witness of every value v that the writer
       signed (v ∈ R_0) or that already has f+1 witnesses *)
    let* mine_u = read (R pid) in
    let mine = dec_vset mine_u in
    let candidates =
      Array.fold_left (fun acc s -> VSet.union acc s) VSet.empty rsets
    in
    let adopted =
      VSet.filter
        (fun v ->
          VSet.mem v rsets.(0)
          || Quorum.has_one_correct q
               (Array.fold_left
                  (fun cnt s -> if VSet.mem v s then cnt + 1 else cnt)
                  0 rsets))
        candidates
    in
    let updated = VSet.union mine adopted in
    let* () =
      if not (VSet.equal updated mine) then write (R pid) (enc_vset updated)
      else ret ()
    in
    (* line 33 *)
    let* rj_u = read (R pid) in
    let rj = dec_vset rj_u in
    (* lines 34-36: answer each asker for its current round *)
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
