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

(* Runs forever (the program never returns); [prev] — the last counter
   value served per asker — is threaded functionally. *)
let[@lnd.pure] help_prog ~n ~(q : Quorum.t) ~pid : (reg, unit) prog =
  let rec round (prev : int PidMap.t) =
    let prev_of k = match PidMap.find_opt k prev with Some c -> c | None -> 0 in
    (* lines 25-27: echo the writer's value, once *)
    let* () =
      let* e_pid = read (E pid) in
      if dec_vopt e_pid <> None then ret ()
      else
        let* e1 = read (E 0) in
        match dec_vopt e1 with
        | Some _ as u -> write (E pid) (enc_vopt u)
        | None -> ret ()
    in
    (* lines 28-30: become a witness of a value echoed by n-f processes *)
    let* () =
      let* r_pid = read (R pid) in
      if dec_vopt r_pid <> None then ret ()
      else
        let* es = read_all ~n (fun i -> E i) dec_vopt in
        match value_with_quorum es ~threshold:(Quorum.availability q) with
        | Some v -> write (R pid) (enc_vopt (Some v))
        | None -> ret ()
    in
    (* lines 31-32 *)
    let rec counters k acc =
      if k >= n then ret (List.rev acc)
      else
        let* u = read (C k) in
        counters (k + 1) ((k, dec_counter u) :: acc)
    in
    let* cks = counters 1 [] in
    let askers = List.filter (fun (k, ck) -> ck > prev_of k) cks in
    if askers <> [] then
      let* () = note (Serving (List.map fst askers)) in
      (* lines 34-36: become a witness of a value with f+1 witnesses *)
      let* () =
        let* r_pid = read (R pid) in
        if dec_vopt r_pid <> None then ret ()
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
      let prev =
        List.fold_left (fun m (k, ck) -> PidMap.add k ck m) prev askers
      in
      let* () = note Served in
      round prev
    else
      let* () = yield in
      round prev
  in
  round PidMap.empty
