(* SWMR register emulation over Byzantine message passing (the Section 9
   corollary: everything in the paper lifts to message-passing systems
   because SWMR registers are implementable there for n > 3f, citing
   Mostéfaoui-Petrolia-Raynal-Jard [9]).

   Design (echo-broadcast dissemination + Byzantine-quorum reads):

   - WRITE(reg, v) by the owner: pick the next timestamp ts, send
     (wreq, reg, ts, v) to all. A replica that receives a wreq *on the
     owner's own channel* echoes (wecho, reg, ts, v) to all; a replica
     echoes after f+1 matching echoes even without the owner's wreq, and
     ACCEPTS the triple after 2f+1 matching echoes — the Srikanth-Toueg
     discipline, which gives unforgeability and relay: whatever one
     correct replica accepts, all correct replicas eventually accept.
     A replica stores, per register, the accepted triple with the largest
     (ts, value-fingerprint); on acceptance it acks the owner. The write
     returns after n-f acks.

   - READ(reg): send (rreq, reg, rid) to all; collect (rrep) replies for
     this rid; once >= n-f distinct replicas replied, return the pair
     supported by >= 2f+1 of them, largest first; if no pair has that
     support (replicas mid-convergence), start a new round with a fresh
     rid. Relay-convergence of the echo layer makes every read terminate,
     and 2f+1 support means at least f+1 correct vouchers.

   Each process owns a SINGLE transport endpoint, and the replica daemon
   is its sole pump: it dispatches replica-bound traffic (wreq, wecho,
   rreq) to the replica state and client-bound traffic (wack, rrep) into
   the client-side tables, which the blocking write/read operations
   merely observe between yields. One endpoint per pid is what lets the
   whole emulation sit behind a sequenced reliable link ({!Rlink} over
   {!Faultnet}): a per-pid sequence space, one ack stream, no duplicated
   fault decisions across cursors.

   Semantics note (documented in DESIGN.md): this emulation is simpler
   than [9]'s full atomic construction; it guarantees that reads return
   genuinely-written (or initial) values and that each replica's view is
   monotone, and the recorded histories are checked for linearizability
   empirically in the test suite. A Byzantine *owner* can of course feed
   the emulation inconsistent writes — exactly the situation the sticky
   register stacked on top must survive. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Wal = Lnd_durable.Wal
module Obs = Lnd_obs.Obs

module PidSet = Set.Make (Int)

type emsg =
  | Wreq of int * int * Univ.t (* reg, ts, v *)
  | Wecho of int * int * Univ.t
  | Wack of int * int (* reg, ts *)
  | Rreq of int * int (* reg, rid *)
  | Rrep of int * int * int * Univ.t (* reg, rid, ts, v *)
  | Sreq of int (* rid — full-state transfer request (recovery) *)
  | Srep of int * (int * int * Univ.t) list
      (* rid, per-register (reg, ts, v) — the replier's whole view *)
  | Batch of emsg list
      (* A replica bundles all its replies to one destination from one
         poll iteration into a single message. Without batching the
         aggregate reply work (one send per request) exceeds the
         replicas' fair share of scheduling steps once several client
         fibers poll emulated registers continuously, and backlogs grow
         without bound. *)

let[@lnd.pure] rec emsg_equal a b =
  match (a, b) with
  | Wreq (r1, t1, v1), Wreq (r2, t2, v2)
  | Wecho (r1, t1, v1), Wecho (r2, t2, v2) ->
      r1 = r2 && t1 = t2 && Univ.equal v1 v2
  | Wack (r1, t1), Wack (r2, t2) -> r1 = r2 && t1 = t2
  | Rreq (r1, i1), Rreq (r2, i2) -> r1 = r2 && i1 = i2
  | Rrep (r1, i1, t1, v1), Rrep (r2, i2, t2, v2) ->
      r1 = r2 && i1 = i2 && t1 = t2 && Univ.equal v1 v2
  | Sreq i1, Sreq i2 -> i1 = i2
  | Srep (i1, l1), Srep (i2, l2) -> (
      i1 = i2
      &&
      try
        List.for_all2
          (fun (r1, t1, v1) (r2, t2, v2) ->
            r1 = r2 && t1 = t2 && Univ.equal v1 v2)
          l1 l2
      with Invalid_argument _ -> false)
  | Batch l1, Batch l2 -> (
      try List.for_all2 emsg_equal l1 l2 with Invalid_argument _ -> false)
  | (Wreq _ | Wecho _ | Wack _ | Rreq _ | Rrep _ | Sreq _ | Srep _ | Batch _), _
    ->
      false

let emsg_key : emsg Univ.key =
  Univ.key ~name:"regemu"
    ~pp:(fun fmt -> function
      | Wreq (r, t, _) -> Format.fprintf fmt "wreq(r%d,ts%d)" r t
      | Wecho (r, t, _) -> Format.fprintf fmt "wecho(r%d,ts%d)" r t
      | Wack (r, t) -> Format.fprintf fmt "wack(r%d,ts%d)" r t
      | Rreq (r, i) -> Format.fprintf fmt "rreq(r%d,#%d)" r i
      | Rrep (r, i, t, _) -> Format.fprintf fmt "rrep(r%d,#%d,ts%d)" r i t
      | Sreq i -> Format.fprintf fmt "sreq(#%d)" i
      | Srep (i, l) -> Format.fprintf fmt "srep(#%d,%d)" i (List.length l)
      | Batch l -> Format.fprintf fmt "batch(%d)" (List.length l))
    ~equal:emsg_equal

(* Value fingerprint used for deterministic tie-breaking and echo-count
   bucketing. *)
let[@lnd.pure] fp (v : Univ.t) : string = Format.asprintf "%a" Univ.pp v

type meta = { owner : int; init : Univ.t; init_fp : string (* [fp init] *) }

type replica = {
  (* reg -> current accepted (ts, fingerprint, value) *)
  current : (int, int * string * Univ.t) Hashtbl.t;
  (* (reg, ts, fingerprint) -> (value, echoers) *)
  rep_echoes : (int * int * string, Univ.t * PidSet.t ref) Hashtbl.t;
  rep_echoed : (int * int * string, unit) Hashtbl.t;
  rep_accepted : (int * int * string, unit) Hashtbl.t;
  (* src -> (reg, rid): the latest read request per requester. A reader
     runs one round at a time, so this is exactly the set of replies
     that may still be outstanding — what a recovered replica must
     re-answer (its retransmission state died with the crash). *)
  rep_last_rreq : (int, int * int) Hashtbl.t;
  mutable serving : bool;
      (* false while recovering: read requests are recorded (and
         journalled) but answered only once state transfer completes *)
  outbox : (int, emsg list ref) Hashtbl.t;
      (* dst -> the replies one pump pass batches for it, newest first *)
}

type client = {
  mutable next_rid : int;
  wts : (int, int ref) Hashtbl.t; (* per-register write timestamp *)
  acks : (int * int, PidSet.t ref) Hashtbl.t; (* (reg, ts) -> ackers *)
  reps : (int, (int * int * Univ.t) list ref) Hashtbl.t;
      (* rid -> (src, ts, v) replies *)
  sreps : (int, (int * (int * int * Univ.t) list) list ref) Hashtbl.t;
      (* rid -> (src, full view) state-transfer replies *)
}

type t = {
  mk_ep : pid:int -> Transport.t;
  n : int;
  q : Quorum.t;
  metas : (int, meta) Hashtbl.t; (* reg id -> meta *)
  mutable next_reg : int;
  mutable sent : int; (* endpoint-level sends, for messages_sent *)
  (* per-pid endpoint and protocol state, created lazily *)
  eps : Transport.t option array;
  replicas : replica option array;
  clients : client option array;
  (* crash-recovery: per-pid journal and one value codec. Both optional —
     with no WAL attached the emulation is byte-identical to the
     volatile implementation. *)
  pwals : Wal.t option array;
  mutable codec : ((Univ.t -> string) * (string -> Univ.t)) option;
}

(* [Quorum.make] (strict): the emulation is only sound for n > 3f [9]. *)
let create_on ~mk_ep ~n ~f : t =
  {
    mk_ep;
    n;
    q = Quorum.make ~n ~f;
    metas = Hashtbl.create 64;
    next_reg = 0;
    sent = 0;
    eps = Array.make n None;
    replicas = Array.make n None;
    clients = Array.make n None;
    pwals = Array.make n None;
    codec = None;
  }

let create space ~n ~f : t =
  create_on ~mk_ep:(Transport.endpoints space ~n) ~n ~f

let endpoint t ~pid : Transport.t =
  match t.eps.(pid) with
  | Some ep -> ep
  | None ->
      let raw = t.mk_ep ~pid in
      (* count sends here, at the seam, so message-complexity accounting
         needs no peek below the transport (and no Net dependency) *)
      let ep =
        {
          raw with
          Transport.send =
            (fun ~dst u ->
              t.sent <- t.sent + 1;
              raw.Transport.send ~dst u);
        }
      in
      t.eps.(pid) <- Some ep;
      ep

let meta t reg =
  match Hashtbl.find_opt t.metas reg with
  | Some m -> m
  | None -> invalid_arg "Regemu: unknown register"

let replica_state t ~pid : replica =
  match t.replicas.(pid) with
  | Some r -> r
  | None ->
      let r =
        {
          current = Hashtbl.create 64;
          rep_echoes = Hashtbl.create 64;
          rep_echoed = Hashtbl.create 64;
          rep_accepted = Hashtbl.create 64;
          rep_last_rreq = Hashtbl.create 16;
          serving = true;
          outbox = Hashtbl.create 8;
        }
      in
      t.replicas.(pid) <- Some r;
      r

let client_state t ~pid : client =
  match t.clients.(pid) with
  | Some c -> c
  | None ->
      let c =
        {
          next_rid = 0;
          wts = Hashtbl.create 16;
          acks = Hashtbl.create 16;
          reps = Hashtbl.create 16;
          sreps = Hashtbl.create 4;
        }
      in
      t.clients.(pid) <- Some c;
      c

(* ---------------- Crash-recovery: journalling ---------------- *)

(* Record grammar (one shared WAL per pid; Rlink's E/S/U records live in
   the same log). The value encoding [venc] is always the LAST field —
   it may contain spaces but never newlines.

     W <reg> <ts>                    client write timestamp
     A <reg> <ts> <venc>             replica adopted (reg, ts, v)
     H <reg> <ts> <venc>             replica echoed (reg, ts, v)
     X <src> <reg> <ts> <venc>       echo for (reg, ts, v) received from src
     P <reg> <ts> <venc>             replica accepted (reg, ts, v)
     R <src> <reg> <rid>             latest read request from src

   Discipline ("journal, sync, only then speak"): every mutation is
   journalled at mutation time; a sync barrier runs before any send that
   EXPOSES the mutated state (wacks, and — via Rlink's deferred-ack
   barrier — everything handled since the last poll). Re-sending state
   that was journalled but whose send was lost is always safe: every
   consumer below is idempotent (PidSet echo/ack counting, per-src reply
   dedup). *)

let set_codec t ~enc ~dec = t.codec <- Some (enc, dec)

let attach_wal t ~pid wal =
  if t.codec = None then invalid_arg "Regemu.attach_wal: set_codec first";
  t.pwals.(pid) <- Some wal

let enc_v t v =
  match t.codec with Some (e, _) -> e v | None -> assert false

let dec_v t s =
  match t.codec with Some (_, d) -> d s | None -> assert false

let jot t ~pid fmt =
  Printf.ksprintf
    (fun record ->
      match t.pwals.(pid) with
      | Some w -> Wal.append w record
      | None -> ())
    fmt

let psync t ~pid =
  match t.pwals.(pid) with Some w -> Wal.sync w | None -> ()

let journalling t ~pid = t.pwals.(pid) <> None

let forget t ~pid =
  t.eps.(pid) <- None;
  t.replicas.(pid) <- None;
  t.clients.(pid) <- None

let begin_recovery t ~pid = (replica_state t ~pid).serving <- false

(* ---------------- Replica side ---------------- *)

let rep_current t (r : replica) reg : int * string * Univ.t =
  match Hashtbl.find_opt r.current reg with
  | Some c -> c
  | None ->
      let m = meta t reg in
      (0, m.init_fp, m.init)

let rep_adopt t (r : replica) ~pid reg ts f_ v =
  let cts, cfp, _ = rep_current t r reg in
  if (ts, f_) > (cts, cfp) then begin
    Hashtbl.replace r.current reg (ts, f_, v);
    if journalling t ~pid then jot t ~pid "A %d %d %s" reg ts (enc_v t v)
  end

let rep_send_echo t (r : replica) (ep : Transport.t) reg ts f_ v =
  if not (Hashtbl.mem r.rep_echoed (reg, ts, f_)) then begin
    Hashtbl.replace r.rep_echoed (reg, ts, f_) ();
    (* keep the value reachable from the echo table even before any echo
       arrives — snapshots reconstruct "H" records from it *)
    if not (Hashtbl.mem r.rep_echoes (reg, ts, f_)) then
      Hashtbl.replace r.rep_echoes (reg, ts, f_) (v, ref PidSet.empty);
    let pid = ep.Transport.pid in
    if journalling t ~pid then jot t ~pid "H %d %d %s" reg ts (enc_v t v);
    (Transport.broadcast ep (Univ.inj emsg_key (Wecho (reg, ts, v)))
     [@lnd.allow
       "sem-ordering: the echo's own journal record is deliberately not \
        synced before the broadcast — acceptance (the \"P\" record) is the \
        promise this replica must not forget, and rep_note_echo syncs it \
        before any ack leaves; a crash that loses an unsynced \"H\" only \
        re-derives and re-broadcasts the echo during recovery, which every \
        consumer treats idempotently. Syncing here would put one fsync on \
        every echo path"])
  end

let rep_note_echo t (r : replica) (ep : Transport.t) reg ts f_ v ~from =
  let pid = ep.Transport.pid in
  let _, set =
    match Hashtbl.find_opt r.rep_echoes (reg, ts, f_) with
    | Some p -> p
    | None ->
        let p = (v, ref PidSet.empty) in
        Hashtbl.replace r.rep_echoes (reg, ts, f_) p;
        p
  in
  if not (PidSet.mem from !set) then begin
    set := PidSet.add from !set;
    if journalling t ~pid then
      jot t ~pid "X %d %d %d %s" from reg ts (enc_v t v)
  end;
  let count = PidSet.cardinal !set in
  if Quorum.has_one_correct t.q count then rep_send_echo t r ep reg ts f_ v;
  if Quorum.has_byz_quorum t.q count
     && not (Hashtbl.mem r.rep_accepted (reg, ts, f_))
  then begin
    Hashtbl.replace r.rep_accepted (reg, ts, f_) ();
    if journalling t ~pid then jot t ~pid "P %d %d %s" reg ts (enc_v t v);
    rep_adopt t r ~pid reg ts f_ v;
    (* the ack EXPOSES acceptance: it must not outlive a crash that the
       journal does not remember, so the sync barrier comes first *)
    psync t ~pid;
    ep.Transport.send ~dst:(meta t reg).owner
      (Univ.inj emsg_key (Wack (reg, ts)))
  end

(* ---------------- Client-bound dispatch ---------------- *)

let cl_note_ack (c : client) reg ts ~src =
  let set =
    match Hashtbl.find_opt c.acks (reg, ts) with
    | Some s -> s
    | None ->
        let s = ref PidSet.empty in
        Hashtbl.replace c.acks (reg, ts) s;
        s
  in
  set := PidSet.add src !set

let cl_note_rep (c : client) rid ts v ~src =
  let l =
    match Hashtbl.find_opt c.reps rid with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace c.reps rid l;
        l
  in
  if not (List.exists (fun (s, _, _) -> s = src) !l) then
    l := (src, ts, v) :: !l

let cl_note_srep (c : client) rid view ~src =
  let l =
    match Hashtbl.find_opt c.sreps rid with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace c.sreps rid l;
        l
  in
  if not (List.exists (fun (s, _) -> s = src) !l) then l := (src, view) :: !l

(* The full register view a replica hands to a recovering peer: one
   (reg, ts, v) triple per register it holds ST-accepted state for.
   Correct replicas only hold genuine triples, so a state-transfer reply
   never needs more trust than a read reply does. *)
let rep_view t (r : replica) : (int * int * Univ.t) list =
  List.rev
    (Tables.fold_sorted
       (fun reg _ acc ->
         let ts, _, v = rep_current t r reg in
         (reg, ts, v) :: acc)
       t.metas [])

(* ---------------- The per-process pump ---------------- *)

(* Handle one batch of incoming messages; all read-replies to the same
   destination leave as a single Batch message, so the per-iteration
   reply cost is bounded by n sends however large the backlog. The pump
   is the only reader of the pid's endpoint: replica-bound messages go
   to the replica state, client-bound ones into the client tables. *)
let pump t ~pid =
  let ep = endpoint t ~pid in
  let r = replica_state t ~pid in
  let c = client_state t ~pid in
  (* one table for every pass: [reset] empties it in place, or shrinks
     it back if a pass grew it, so the flush below visits destinations
     in the order a fresh table would *)
  let outbox = r.outbox in
  Hashtbl.reset outbox;
  let out ~dst m =
    match Hashtbl.find_opt outbox dst with
    | Some l -> l := m :: !l
    | None -> Hashtbl.replace outbox dst (ref [ m ])
  in
  (* Every decoded payload is recorded as a receiver-side [Obs.Claim]
     BEFORE it is acted on: the claim attributes what [src] said, so an
     auditor can cross-examine senders without trusting any receiver's
     subsequent behaviour. A claim is built only while a sink records
     it, and a value's fingerprint at most once per payload. *)
  let claim ~src cl f_ = Obs.emit ~pid (Obs.Claim { src; claim = cl; fp = f_ }) in
  let rec handle ~src (m : emsg) =
    match m with
    | Wreq (reg, ts, v) ->
        let echo = Hashtbl.mem t.metas reg && src = (meta t reg).owner in
        if echo || Obs.enabled () then begin
          let f_ = fp v in
          if Obs.enabled () then claim ~src (Obs.Cl_wreq { reg; ts }) f_;
          if echo then rep_send_echo t r ep reg ts f_ v
        end
    | Wecho (reg, ts, v) ->
        let known = Hashtbl.mem t.metas reg in
        if known || Obs.enabled () then begin
          let f_ = fp v in
          if Obs.enabled () then claim ~src (Obs.Cl_wecho { reg; ts }) f_;
          if known then rep_note_echo t r ep reg ts f_ v ~from:src
        end
    | Rreq (reg, rid) ->
        if Hashtbl.mem t.metas reg then begin
          (* remember the latest outstanding request per requester: a
             recovered incarnation re-answers it (the reply — or its
             retransmission state — may have died with the crash) *)
          Hashtbl.replace r.rep_last_rreq src (reg, rid);
          if journalling t ~pid then jot t ~pid "R %d %d %d" src reg rid;
          if r.serving then begin
            let ts, _, v = rep_current t r reg in
            out ~dst:src (Rrep (reg, rid, ts, v))
          end
        end
    | Wack (reg, ts) ->
        if Obs.enabled () then claim ~src (Obs.Cl_wack { reg; ts }) "";
        cl_note_ack c reg ts ~src;
        if Obs.enabled () then begin
          let count =
            match Hashtbl.find_opt c.acks (reg, ts) with
            | Some s -> PidSet.cardinal !s
            | None -> 0
          in
          Obs.emit ~pid (Obs.Reg_reply { reg; rid = ts; src; count })
        end
    | Rrep (reg, rid, ts, v) ->
        if Obs.enabled () then claim ~src (Obs.Cl_rrep { reg; rid; ts }) (fp v);
        cl_note_rep c rid ts v ~src;
        if Obs.enabled () then begin
          let count =
            match Hashtbl.find_opt c.reps rid with
            | Some l -> List.length !l
            | None -> 0
          in
          Obs.emit ~pid (Obs.Reg_reply { reg; rid; src; count })
        end
    | Sreq rid ->
        (* state transfer: answered even while recovering — the view is
           whatever is ST-accepted so far, always genuine *)
        out ~dst:src (Srep (rid, rep_view t r))
    | Srep (rid, view) ->
        if Obs.enabled () then
          List.iter
            (fun (reg, ts, v) -> claim ~src (Obs.Cl_state { reg; ts }) (fp v))
            view;
        cl_note_srep c rid view ~src
    | Batch l -> List.iter (handle ~src) l
  in
  List.iter
    (fun (src, payload) ->
      match Univ.prj emsg_key payload with
      | Some m -> handle ~src m
      | None -> if Obs.enabled () then claim ~src Obs.Cl_garbage "")
    (ep.Transport.poll_all ());
  (Hashtbl.iter
     (fun dst l ->
       let msg = match !l with [ m ] -> m | ms -> Batch (List.rev ms) in
       ep.Transport.send ~dst (Univ.inj emsg_key msg))
     outbox
   [@lnd.allow
     "determinism: batch send order feeds the seeded per-message fault \
      plan (Faultnet draws one decision per send, in send order), so \
      sorting this iteration would silently invalidate every recorded \
      fuzz/chaos seed; outbox insertion order is itself deterministic \
      for a fixed schedule"]
   [@lnd.allow
     "sem-ordering: the outbox carries only read and state-transfer \
      replies, which expose state already made durable by the acceptance \
      barrier (rep_note_echo syncs before its ack; recovery syncs before \
      re-answering); the outstanding-request \"R\" record this flush may \
      leave unsynced is a retransmission aid whose loss costs one client \
      retry, never a forgotten promise"])

(* The replica daemon each correct process must run. It is also the
   pid's message pump: blocking client operations on the same pid rely
   on it to deliver their acks and read replies. *)
let replica_daemon t ~pid : unit =
  while true do
    pump t ~pid;
    Sched.yield ()
  done

(* ---------------- Client side (the emulated Cell operations) -------- *)

let emu_write t reg (v : Univ.t) : unit =
  let pid = Sched.self () in
  let m = meta t reg in
  if pid <> m.owner then
    raise
      (Space.Permission_violation
         { pid; reg = Printf.sprintf "emu#%d" reg; op = "write" });
  let ep = endpoint t ~pid in
  let c = client_state t ~pid in
  let tsr =
    match Hashtbl.find_opt c.wts reg with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace c.wts reg r;
        r
  in
  incr tsr;
  let ts = !tsr in
  let sp =
    if Obs.enabled () then begin
      let sp =
        Obs.span_open ~pid ~name:"EMU_WRITE"
          ~arg:(Printf.sprintf "r%d=%s" reg (fp v)) ()
      in
      Obs.emit ~pid (Obs.Reg_round { reg; round = "write"; rid = ts });
      (* declare the write before the Wreq broadcast: every claim a
         replica later derives from it (echo, ack, reply) then has an
         earlier justification on the event stream *)
      Obs.emit ~pid (Obs.Reg_write_ann { reg; ts; fp = fp v });
      sp
    end
    else 0
  in
  (* the broadcast exposes ts: journal it first so a restarted writer
     never reuses a timestamp it already spoke for *)
  jot t ~pid "W %d %d" reg ts;
  psync t ~pid;
  Transport.broadcast ep (Univ.inj emsg_key (Wreq (reg, ts, v)));
  let done_ = ref false in
  while not !done_ do
    (match Hashtbl.find_opt c.acks (reg, ts) with
    | Some s when Quorum.has_availability t.q (PidSet.cardinal !s) ->
        if Obs.enabled () then
          Obs.emit ~pid
            (Obs.Reg_quorum { reg; rid = ts; count = PidSet.cardinal !s });
        done_ := true
    | _ -> ());
    if not !done_ then Sched.yield ()
  done;
  if Obs.enabled () then Obs.span_close ~pid ~result:"done" ~name:"EMU_WRITE" sp

(* Clock ticks a read round waits for availability before retrying with a
   fresh rid.  Only reachable when a replica restart orphaned a reply. *)
let round_patience = 400_000

let emu_read t reg : Univ.t =
  let pid = Sched.self () in
  let ep = endpoint t ~pid in
  let c = client_state t ~pid in
  let sp =
    if Obs.enabled () then
      Obs.span_open ~pid ~name:"EMU_READ" ~arg:(Printf.sprintf "r%d" reg) ()
    else 0
  in
  let result = ref None in
  while !result = None do
    let rid = c.next_rid in
    c.next_rid <- rid + 1;
    if Obs.enabled () then
      Obs.emit ~pid (Obs.Reg_round { reg; round = "read"; rid });
    Transport.broadcast ep (Univ.inj emsg_key (Rreq (reg, rid)));
    (* Collect replies for this rid from >= n-f distinct replicas — but
       not forever.  A replica that crashed after we broadcast may have
       sent its reply from an incarnation whose retransmission state died
       with it, and its successor only re-answers the *latest* request it
       journalled per source; with several reader fibres on one pid the
       older round would then hang.  After a patience window (far above
       any crash-free round, far below the watchdog) we abandon the rid
       and open a fresh round, which the recovered replica answers
       normally.  [Sched.now] is not a scheduling point, so crash-free
       runs are bit-for-bit unchanged. *)
    let t0 = Sched.now () in
    let round_done = ref false in
    while not !round_done do
      match Hashtbl.find_opt c.reps rid with
      | Some l when Quorum.has_availability t.q (List.length !l) ->
          round_done := true
      | _ ->
          if Sched.now () - t0 > round_patience then round_done := true
          else Sched.yield ()
    done;
    let replies =
      match Hashtbl.find_opt c.reps rid with Some l -> !l | None -> []
    in
    (* Bucket by (ts, fingerprint). A bucket with >= f+1 distinct vouchers
       contains at least one correct replica, and correct replicas only
       hold ST-accepted (genuine) triples, so the value is genuine.
       Demanding more support (e.g. 2f+1 of the n-f replies) would
       livelock under continuous writes: at n = 3f+1 it requires unanimity
       of every collected reply. *)
    let buckets : (int * string, Univ.t * int ref) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun (_, ts, v) ->
        let key = (ts, fp v) in
        match Hashtbl.find_opt buckets key with
        | Some (_, cnt) -> incr cnt
        | None -> Hashtbl.replace buckets key (v, ref 1))
      replies;
    let best = ref None in
    (* max-selection is order-independent, so sorted iteration is free *)
    Tables.iter_sorted
      (fun (ts, f_) (v, cnt) ->
        if Quorum.has_one_correct t.q !cnt then
          match !best with
          | Some (bts, bf, _) when (bts, bf) >= (ts, f_) -> ()
          | _ -> best := Some (ts, f_, v))
      buckets;
    (match !best with
    | Some (bts, bf, v) ->
        if Obs.enabled () then begin
          let count =
            match Hashtbl.find_opt buckets (bts, bf) with
            | Some (_, cnt) -> !cnt
            | None -> 0
          in
          Obs.emit ~pid (Obs.Reg_quorum { reg; rid; count })
        end;
        result := Some v
    | None -> () (* replicas still converging: new round *));
    Hashtbl.remove c.reps rid
  done;
  let v = Option.get !result in
  if Obs.enabled () then Obs.span_close ~pid ~result:(fp v) ~name:"EMU_READ" sp;
  v

(* ---------------- Allocator ---------------- *)

(* Allocate emulated registers (call during system setup, before running
   fibers). The returned cells can be fed straight into
   [Verifiable.alloc_with] / [Sticky.alloc_with]. *)
let allocator (t : t) : Cell.allocator =
 fun ~name ~owner ?single_reader ~init () ->
  ignore single_reader (* readability not enforced by the emulation *);
  let reg = t.next_reg in
  t.next_reg <- reg + 1;
  let init_fp = fp init in
  Hashtbl.replace t.metas reg { owner; init; init_fp };
  if Obs.enabled () then
    Obs.emit ~pid:owner (Obs.Reg_alloc { reg; owner; fp = init_fp });
  {
    Cell.cell_name = Printf.sprintf "emu:%s" name;
    cell_read = (fun () -> emu_read t reg);
    cell_write = (fun v -> emu_write t reg v);
  }

let messages_sent t = t.sent

(* ---------------- Crash-recovery: restore and catch-up ---------------- *)

let[@lnd.pure] tail_from record pos = String.sub record pos (String.length record - pos)

let restore_record t ~pid (record : string) : bool =
  let r = replica_state t ~pid in
  let c = client_state t ~pid in
  let adopt reg ts v =
    let f_ = fp v in
    let cts, cfp, _ = rep_current t r reg in
    if (ts, f_) > (cts, cfp) then Hashtbl.replace r.current reg (ts, f_, v)
  in
  let ensure_echoes reg ts v =
    let f_ = fp v in
    match Hashtbl.find_opt r.rep_echoes (reg, ts, f_) with
    | Some (_, set) -> set
    | None ->
        let set = ref PidSet.empty in
        Hashtbl.replace r.rep_echoes (reg, ts, f_) (v, set);
        set
  in
  if record = "" then false
  else
    match record.[0] with
    | 'W' -> (
        match Scanf.sscanf_opt record "W %d %d" (fun reg ts -> (reg, ts)) with
        | Some (reg, ts) ->
            (match Hashtbl.find_opt c.wts reg with
            | Some tsr -> if ts > !tsr then tsr := ts
            | None -> Hashtbl.replace c.wts reg (ref ts));
            true
        | None -> false)
    | 'A' -> (
        match
          Scanf.sscanf_opt record "A %d %d %n" (fun reg ts pos ->
              (reg, ts, pos))
        with
        | Some (reg, ts, pos) ->
            adopt reg ts (dec_v t (tail_from record pos));
            true
        | None -> false)
    | 'H' -> (
        match
          Scanf.sscanf_opt record "H %d %d %n" (fun reg ts pos ->
              (reg, ts, pos))
        with
        | Some (reg, ts, pos) ->
            let v = dec_v t (tail_from record pos) in
            ignore (ensure_echoes reg ts v);
            Hashtbl.replace r.rep_echoed (reg, ts, fp v) ();
            true
        | None -> false)
    | 'X' -> (
        match
          Scanf.sscanf_opt record "X %d %d %d %n" (fun src reg ts pos ->
              (src, reg, ts, pos))
        with
        | Some (src, reg, ts, pos) ->
            let v = dec_v t (tail_from record pos) in
            let set = ensure_echoes reg ts v in
            set := PidSet.add src !set;
            true
        | None -> false)
    | 'P' -> (
        match
          Scanf.sscanf_opt record "P %d %d %n" (fun reg ts pos ->
              (reg, ts, pos))
        with
        | Some (reg, ts, pos) ->
            let v = dec_v t (tail_from record pos) in
            ignore (ensure_echoes reg ts v);
            Hashtbl.replace r.rep_accepted (reg, ts, fp v) ();
            true
        | None -> false)
    | 'R' -> (
        match
          Scanf.sscanf_opt record "R %d %d %d" (fun src reg rid ->
              (src, reg, rid))
        with
        | Some (src, reg, rid) ->
            Hashtbl.replace r.rep_last_rreq src (reg, rid);
            true
        | None -> false)
    | _ -> false

let snapshot_records t ~pid : string list =
  let r = replica_state t ~pid in
  let c = client_state t ~pid in
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  Tables.iter_sorted (fun reg tsr -> add "W %d %d" reg !tsr) c.wts;
  Tables.iter_sorted
    (fun reg (ts, _, v) -> add "A %d %d %s" reg ts (enc_v t v))
    r.current;
  Tables.iter_sorted
    (fun (reg, ts, f_) (v, set) ->
      if Hashtbl.mem r.rep_echoed (reg, ts, f_) then
        add "H %d %d %s" reg ts (enc_v t v);
      if Hashtbl.mem r.rep_accepted (reg, ts, f_) then
        add "P %d %d %s" reg ts (enc_v t v);
      PidSet.iter
        (fun src -> add "X %d %d %d %s" src reg ts (enc_v t v))
        !set)
    r.rep_echoes;
  Tables.iter_sorted
    (fun src (reg, rid) -> add "R %d %d %d" src reg rid)
    r.rep_last_rreq;
  List.rev !out

(* The fiber body a restarted process runs: catch up on what it missed
   while down, re-announce what its predecessor may have had in flight,
   then serve as an ordinary replica.

   Safety does not depend on the state transfer: everything the crashed
   incarnation EXPOSED (acks it sent, replies it answered) was journalled
   and synced first, so the restored state is at least as advanced as any
   state another process observed. The transfer is a liveness
   accelerator — it catches the replica up past writes that completed
   entirely while it was down, without waiting for writer
   retransmissions. *)
let recover_and_serve t ~pid : unit =
  let ep = endpoint t ~pid in
  let r = replica_state t ~pid in
  let c = client_state t ~pid in
  (* state transfer round: full views from >= n-f distinct peers *)
  let rid = c.next_rid in
  c.next_rid <- rid + 1;
  let sp =
    if Obs.enabled () then begin
      let sp = Obs.span_open ~pid ~name:"RECOVER" () in
      Obs.emit ~pid (Obs.Reg_round { reg = -1; round = "recover"; rid });
      sp
    end
    else 0
  in
  Transport.broadcast ep (Univ.inj emsg_key (Sreq rid));
  let enough () =
    match Hashtbl.find_opt c.sreps rid with
    | Some l -> Quorum.has_availability t.q (List.length !l)
    | None -> false
  in
  while not (enough ()) do
    pump t ~pid;
    Sched.yield ()
  done;
  let views = !(Hashtbl.find c.sreps rid) in
  Hashtbl.remove c.sreps rid;
  (* bucket by (reg, ts, fingerprint); adopt any bucket vouched by >= f+1
     distinct repliers (one of them correct, so the triple is genuine)
     that beats the restored state — same trust rule as a read round *)
  let buckets : (int * int * string, Univ.t * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (_, view) ->
      List.iter
        (fun (reg, ts, v) ->
          let key = (reg, ts, fp v) in
          match Hashtbl.find_opt buckets key with
          | Some (_, cnt) -> incr cnt
          | None -> Hashtbl.replace buckets key (v, ref 1))
        view)
    views;
  Tables.iter_sorted
    (fun (reg, ts, f_) (v, cnt) ->
      if Quorum.has_one_correct t.q !cnt then rep_adopt t r ~pid reg ts f_ v)
    buckets;
  (* re-run thresholds and re-announce: the predecessor's unacked sends
     (echoes, acks, replies) died with its retransmission state, and a
     journalled echo set may already be past a threshold whose triggered
     send was lost. Every consumer below is idempotent, so resending is
     always safe. *)
  Tables.iter_sorted
    (fun (reg, ts, f_) (v, set) ->
      let count = PidSet.cardinal !set in
      if
        Quorum.has_one_correct t.q count
        || Hashtbl.mem r.rep_echoed (reg, ts, f_)
      then begin
        if journalling t ~pid && not (Hashtbl.mem r.rep_echoed (reg, ts, f_))
        then jot t ~pid "H %d %d %s" reg ts (enc_v t v);
        Hashtbl.replace r.rep_echoed (reg, ts, f_) ();
        (Transport.broadcast ep (Univ.inj emsg_key (Wecho (reg, ts, v)))
         [@lnd.allow
           "sem-ordering: recovery's re-announce is the replay path of \
            rep_send_echo's deferred-sync echo — the psync below makes \
            every acceptance durable before any ack leaves, and a crash \
            during re-announce just re-derives these same echoes on the \
            next recovery"])
      end;
      if
        Quorum.has_byz_quorum t.q count
        && not (Hashtbl.mem r.rep_accepted (reg, ts, f_))
      then begin
        Hashtbl.replace r.rep_accepted (reg, ts, f_) ();
        if journalling t ~pid then jot t ~pid "P %d %d %s" reg ts (enc_v t v);
        rep_adopt t r ~pid reg ts f_ v
      end)
    r.rep_echoes;
  (* acceptance durable before any ack leaves *)
  psync t ~pid;
  Tables.iter_sorted
    (fun (reg, ts, _) () ->
      if Hashtbl.mem t.metas reg then
        ep.Transport.send ~dst:(meta t reg).owner
          (Univ.inj emsg_key (Wack (reg, ts))))
    r.rep_accepted;
  (* re-answer the read requests the crash left hanging *)
  Tables.iter_sorted
    (fun src (reg, rid) ->
      if Hashtbl.mem t.metas reg then begin
        let ts, _, v = rep_current t r reg in
        ep.Transport.send ~dst:src (Univ.inj emsg_key (Rrep (reg, rid, ts, v)))
      end)
    r.rep_last_rreq;
  r.serving <- true;
  if Obs.enabled () then Obs.span_close ~pid ~result:"done" ~name:"RECOVER" sp;
  replica_daemon t ~pid
