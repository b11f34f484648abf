(* Reliable links over a lossy transport: sequence numbers, ack-driven
   retransmission with capped exponential backoff, duplicate
   suppression, and incarnation epochs for crash-recovery.

   Every outgoing payload is wrapped as DATA(epoch, seq, payload) with a
   per-destination sequence number and kept in an unacked table; the
   receiver answers every DATA with ACK(epoch, seq) (every copy — the
   previous ack may itself have been lost) and delivers the payload at
   most once, suppressing retransmitted and network-duplicated copies.
   Unacked messages are retransmitted whenever a poll finds their
   backoff timer expired; the timer is measured in logical-clock ticks
   (the scheduler clock advances once per step, so ticks are the
   simulator's notion of time) and doubles on every retransmission up to
   a cap. Finding them takes a sorted pass over the unacked table, so
   the layer keeps the earliest retransmission deadline: every send and
   every retransmission lowers it, a poll before it skips the pass, and
   only a pass that finds nothing due raises it, to the earliest
   deadline that pass saw. It never exceeds a live entry's deadline, so
   a skipped pass is one that would have retransmitted nothing.

   INCARNATION EPOCHS. Dedup state keyed only by pid collides across
   restarts: a recovered peer restarting its sequence space at 0 would
   have every fresh message swallowed as a "duplicate" by receivers that
   remember its previous life — silent message loss — while its own
   stale dedup tables would swallow fresh traffic as replays. Each
   incarnation therefore stamps an epoch into every envelope: a receiver
   seeing a HIGHER epoch from a source resets that source's dedup state
   (the old incarnation can never speak again); a LOWER epoch is a stale
   straggler and is dropped; acks only count for the epoch that sent the
   data. Epochs are made durable by the owner (journal + sync BEFORE the
   new incarnation's first send — see [journal_epoch]), so no two
   incarnations of a correct process ever share an epoch.

   PERSISTENCE. With a {!Lnd_durable.Wal} attached, each fresh delivery
   is journalled ("S src epoch seq") and its ack DEFERRED: acks
   accumulate and are flushed at the start of the next poll, AFTER a WAL
   sync barrier. That closes the acked-but-lost window — an ack on the
   wire implies the delivery (and every protocol-level record the
   consumer journalled while handling it in between) is durable, so a
   crashed receiver either remembers a delivery or was never acked for
   it and the sender retransmits. Without a WAL the layer acks
   immediately and is behaviourally identical to the pre-recovery
   implementation.

   Safety (at-most-once, sender authenticity) holds over ANY fault plan;
   liveness (exactly-once eventual delivery) needs the transport to be
   fair-lossy — infinitely many retransmissions cannot all be lost —
   which [Faultnet]'s fair_burst cap guarantees, provided partitions
   heal. Over a perfectly reliable transport the layer is inert: no
   backoff timer fires before the first ack arrives (retransmissions
   stay at 0), and the only overhead is one ACK per DATA.

   Raw payloads that are not rlink envelopes — Byzantine fibers
   injecting protocol messages straight into the channel logs — are
   passed through to the consumer unsequenced and unacked: Byzantine
   senders do not get reliability, which is their problem, not ours.

   The layer is deliberately NOT FIFO: delivery order is whatever the
   network produces (the consumers — threshold broadcast protocols and
   the register emulation — are insensitive to reordering, and holding
   back gaps would add latency for nothing). Sequence numbers exist for
   dedup and retransmission only. *)

open Lnd_support
open Lnd_runtime
module Wal = Lnd_durable.Wal
module Obs = Lnd_obs.Obs

type renv = Data of int * int * Univ.t | Ack of int * int

let renv_key : renv Univ.key =
  Univ.key ~name:"rlink"
    ~pp:(fun fmt -> function
      | Data (e, seq, p) -> Format.fprintf fmt "data@%d#%d:%a" e seq Univ.pp p
      | Ack (e, seq) -> Format.fprintf fmt "ack@%d#%d" e seq)
    ~equal:(fun a b ->
      match (a, b) with
      | Data (e1, s1, p1), Data (e2, s2, p2) ->
          e1 = e2 && s1 = s2 && Univ.equal p1 p2
      | Ack (e1, s1), Ack (e2, s2) -> e1 = e2 && s1 = s2
      | (Data _ | Ack _), _ -> false)

type cfg = {
  base_backoff : int; (* ticks before the first retransmission *)
  max_backoff : int; (* backoff cap (doubling stops here) *)
}

let default_cfg = { base_backoff = 1_500; max_backoff = 24_000 }

type out_entry = {
  o_dst : int;
  o_seq : int;
  o_payload : Univ.t;
  mutable o_last_tx : int; (* clock at last transmission *)
  mutable o_backoff : int;
}

type t = {
  tr : Transport.t;
  cfg : cfg;
  epoch : int; (* this incarnation's epoch, stamped into every DATA *)
  wal : Wal.t option; (* journal for delivery state; None = volatile *)
  out : (int * int, out_entry) Hashtbl.t; (* (dst, seq) -> in flight *)
  mutable next_due : int;
      (* no entry of [out] is due before this clock: lowered by every
         send and retransmission, raised only by a sorted pass that
         finds nothing due *)
  next_seq : int array; (* per destination *)
  peer_epoch : int array; (* per source: highest epoch seen *)
  seen_upto : int array; (* per source: all seq < this delivered *)
  seen_ahead : (int * int, unit) Hashtbl.t; (* (src, seq) past the prefix *)
  mutable deferred : (int * int * int) list; (* (dst, epoch, seq) acks *)
  mutable jpend : string list;
      (* "S" records awaiting the next barrier, newest first. Deferring
         the append (not just the sync) keeps the WAL byte order
         consumer-records-first: a torn flush keeps a PREFIX of the
         pending bytes, so an "S" written at delivery time could survive
         a crash that loses the consumer's records for that same
         delivery — recovery would then suppress the retransmission (and
         ack it!) with the delivery's effect gone. Appended at the
         barrier, an "S" is always preceded by everything the consumer
         journalled while handling it. *)
  mutable snap_every : int; (* snapshot when appended >= this; 0 = off *)
  mutable snap_extra : unit -> string list; (* the consumer's records *)
  mutable st_data : int; (* first transmissions *)
  mutable st_retrans : int; (* retransmissions *)
  mutable st_acks : int; (* acks sent *)
  mutable st_redundant : int; (* duplicate DATA suppressed *)
  mutable st_stale : int; (* stale-epoch envelopes dropped *)
  mutable st_raw : int; (* un-enveloped payloads passed through *)
}

let create ?(cfg = default_cfg) ?(epoch = 0) ?wal (tr : Transport.t) : t =
  (* Announce the incarnation: the auditor checks that a pid's epochs
     only ever move forward, so replaying a pre-crash incarnation is
     attributable evidence. *)
  if Obs.enabled () then
    Obs.emit ~pid:tr.Transport.pid (Obs.Link_incarnation { epoch });
  {
    tr;
    cfg;
    epoch;
    wal;
    out = Hashtbl.create 64;
    next_due = max_int;
    next_seq = Array.make tr.Transport.n 0;
    peer_epoch = Array.make tr.Transport.n 0;
    seen_upto = Array.make tr.Transport.n 0;
    seen_ahead = Hashtbl.create 64;
    deferred = [];
    jpend = [];
    snap_every = 0;
    snap_extra = (fun () -> []);
    st_data = 0;
    st_retrans = 0;
    st_acks = 0;
    st_redundant = 0;
    st_stale = 0;
    st_raw = 0;
  }

let epoch t = t.epoch

let enable_snapshots t ~every ~extra =
  t.snap_every <- every;
  t.snap_extra <- extra

type stats = {
  data_sent : int;
  retransmissions : int;
  acks_sent : int;
  redundant : int;
  stale : int;
  raw_passed : int;
}

let stats (t : t) : stats =
  {
    data_sent = t.st_data;
    retransmissions = t.st_retrans;
    acks_sent = t.st_acks;
    redundant = t.st_redundant;
    stale = t.st_stale;
    raw_passed = t.st_raw;
  }

let pending (t : t) : int = Hashtbl.length t.out

let send (t : t) ~(dst : int) (payload : Univ.t) : unit =
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  let e =
    {
      o_dst = dst;
      o_seq = seq;
      o_payload = payload;
      o_last_tx = Sched.now ();
      o_backoff = t.cfg.base_backoff;
    }
  in
  Hashtbl.replace t.out (dst, seq) e;
  t.next_due <- Int.min t.next_due (e.o_last_tx + e.o_backoff);
  t.st_data <- t.st_data + 1;
  if Obs.enabled () then
    Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_data { dst; seq; retrans = false });
  t.tr.Transport.send ~dst (Univ.inj renv_key (Data (t.epoch, seq, payload)))

let broadcast (t : t) (payload : Univ.t) : unit =
  for dst = 0 to t.tr.Transport.n - 1 do
    send t ~dst payload
  done

let is_new (t : t) ~src ~seq =
  seq >= t.seen_upto.(src) && not (Hashtbl.mem t.seen_ahead (src, seq))

let mark_seen (t : t) ~src ~seq =
  Hashtbl.replace t.seen_ahead (src, seq) ();
  (* advance the contiguous prefix to keep the ahead-set small *)
  while Hashtbl.mem t.seen_ahead (src, t.seen_upto.(src)) do
    Hashtbl.remove t.seen_ahead (src, t.seen_upto.(src));
    t.seen_upto.(src) <- t.seen_upto.(src) + 1
  done

(* A higher epoch from [src]: its previous incarnation can never speak
   again, so that source's dedup state restarts from scratch. *)
let bump_peer (t : t) ~src ~epoch =
  if Obs.enabled () then
    Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_epoch { src; epoch });
  t.peer_epoch.(src) <- epoch;
  t.seen_upto.(src) <- 0;
  List.iter
    (fun ((s, _) as key, ()) -> if s = src then Hashtbl.remove t.seen_ahead key)
    (Tables.sorted_bindings t.seen_ahead)

(* ---------------- Journal grammar ---------------- *)

(* Records this layer owns (shared WAL, one grammar with the consumer):
     E <epoch>                 this process's incarnation epoch
     S <src> <epoch> <seq>     one delivered sequence number
     U <src> <epoch> <upto>    a delivered contiguous prefix [0, upto)
   "E" is journalled by [journal_epoch] before an incarnation's first
   send; "S" on each fresh delivery; "U"/"S" together compact the seen
   state into snapshots. *)

let journal_seen t ~src ~epoch ~seq =
  match t.wal with
  | None -> ()
  | Some _ -> t.jpend <- Printf.sprintf "S %d %d %d" src epoch seq :: t.jpend

let journal_epoch (w : Wal.t) (epoch : int) : unit =
  Wal.append w (Printf.sprintf "E %d" epoch);
  Wal.sync w

let epoch_of_records (records : string list) : int =
  List.fold_left
    (fun acc r ->
      match Scanf.sscanf_opt r "E %d" (fun e -> e) with
      | Some e -> max acc e
      | None -> acc)
    (-1) records

let restore_seen t ~src ~epoch ~seq =
  if epoch > t.peer_epoch.(src) then bump_peer t ~src ~epoch;
  if epoch = t.peer_epoch.(src) then mark_seen t ~src ~seq

let restore_seen_upto t ~src ~epoch ~upto =
  if epoch > t.peer_epoch.(src) then bump_peer t ~src ~epoch;
  if epoch = t.peer_epoch.(src) then
    t.seen_upto.(src) <- max t.seen_upto.(src) upto

let restore_record t (r : string) : bool =
  match Scanf.sscanf_opt r "S %d %d %d" (fun a b c -> (a, b, c)) with
  | Some (src, epoch, seq) ->
      restore_seen t ~src ~epoch ~seq;
      true
  | None -> (
      match Scanf.sscanf_opt r "U %d %d %d" (fun a b c -> (a, b, c)) with
      | Some (src, epoch, upto) ->
          restore_seen_upto t ~src ~epoch ~upto;
          true
      | None -> (
          match Scanf.sscanf_opt r "E %d" (fun e -> e) with
          | Some _ -> true (* consumed by [epoch_of_records] *)
          | None -> false))

(* The seen state compacted to records, for snapshots. Includes this
   incarnation's own epoch — truncating the log must not lose it. *)
let seen_records t : string list =
  let prefixes =
    List.concat
      (List.init (Array.length t.seen_upto) (fun src ->
           if t.seen_upto.(src) > 0 || t.peer_epoch.(src) > 0 then
             [
               Printf.sprintf "U %d %d %d" src t.peer_epoch.(src)
                 t.seen_upto.(src);
             ]
           else []))
  in
  let ahead =
    List.map
      (fun ((src, seq), ()) ->
        Printf.sprintf "S %d %d %d" src t.peer_epoch.(src) seq)
      (Tables.sorted_bindings t.seen_ahead)
  in
  (Printf.sprintf "E %d" t.epoch :: prefixes) @ ahead

(* Retransmit every unacked entry whose backoff expired, in the table's
   key order (dst, seq); nothing is due before [next_due]. *)
let retransmit_due (t : t) =
  let now = Sched.now () in
  if now >= t.next_due then begin
    let entries = Tables.sorted_bindings t.out in
    match
      List.filter_map
        (fun (_, e) -> if now - e.o_last_tx >= e.o_backoff then Some e else None)
        entries
    with
    | [] ->
        t.next_due <-
          List.fold_left
            (fun m (_, e) -> Int.min m (e.o_last_tx + e.o_backoff))
            max_int entries
    | due ->
        List.iter
          (fun e ->
            e.o_last_tx <- now;
            e.o_backoff <- min (2 * e.o_backoff) t.cfg.max_backoff;
            t.next_due <- Int.min t.next_due (now + e.o_backoff);
            t.st_retrans <- t.st_retrans + 1;
            if Obs.enabled () then
              Obs.emit ~pid:t.tr.Transport.pid
                (Obs.Link_data { dst = e.o_dst; seq = e.o_seq; retrans = true });
            t.tr.Transport.send ~dst:e.o_dst
              (Univ.inj renv_key (Data (t.epoch, e.o_seq, e.o_payload))))
          due
  end

(* One pump: flush deferred acks behind a WAL barrier, classify
   incoming, ack (or defer), retransmit due entries, maybe snapshot.
   Every transport send is a scheduling point, so all table reads are
   snapshotted into lists first — a concurrent fiber of the same pid
   (client op vs protocol daemon sharing one rlink) may mutate the
   tables between sends; at worst a message just acked is retransmitted
   once more, which the receiver's dedup absorbs. *)
let poll_all (t : t) : (int * Univ.t) list =
  (* Deferred acks from the previous poll go out only once every record
     journalled while handling those deliveries is durable: an ack on
     the wire implies the receiver will remember the delivery across a
     crash. The pending "S" records are appended HERE, after the
     consumer's records (see [jpend]), and a due snapshot is taken here
     too — this is the one point where the in-memory state (rlink seen
     marks AND the consumer's tables) reflects exactly the deliveries
     already handled, so the compacted generation is consistent. (A
     crash inside this barrier loses the acks — the sender retransmits,
     the journalled seen-state suppresses the replay, and the ack goes
     out again.) *)
  (match (t.wal, t.deferred) with
  | Some w, _ :: _ ->
      List.iter (Wal.append w) (List.rev t.jpend);
      t.jpend <- [];
      if t.snap_every > 0 && Wal.appended w >= t.snap_every then
        Wal.snapshot w (seen_records t @ t.snap_extra ())
      else Wal.sync w;
      let acks = List.rev t.deferred in
      t.deferred <- [];
      List.iter
        (fun (dst, e, seq) ->
          t.st_acks <- t.st_acks + 1;
          if Obs.enabled () then
            Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_ack { dst; seq });
          t.tr.Transport.send ~dst (Univ.inj renv_key (Ack (e, seq))))
        acks
  | _ -> ());
  let incoming = t.tr.Transport.poll_all () in
  let delivered = ref [] and to_ack = ref [] in
  List.iter
    (fun (src, u) ->
      match Univ.prj renv_key u with
      | Some (Data (e, seq, payload)) ->
          if e < t.peer_epoch.(src) then begin
            (* a straggler from a dead incarnation: not acked, not
               delivered — its dedup space no longer exists *)
            t.st_stale <- t.st_stale + 1;
            if Obs.enabled () then
              Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_stale { src })
          end
          else begin
            if e > t.peer_epoch.(src) then bump_peer t ~src ~epoch:e;
            (* ack every copy: the previous ack may have been lost *)
            (match t.wal with
            | None -> to_ack := (src, e, seq) :: !to_ack
            | Some _ -> t.deferred <- (src, e, seq) :: t.deferred);
            if is_new t ~src ~seq then begin
              journal_seen t ~src ~epoch:e ~seq;
              mark_seen t ~src ~seq;
              if Obs.enabled () then
                Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_deliver { src; seq });
              delivered := (src, payload) :: !delivered
            end
            else begin
              t.st_redundant <- t.st_redundant + 1;
              if Obs.enabled () then
                Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_dedup { src; seq })
            end
          end
      | Some (Ack (e, seq)) ->
          (* acks only settle the incarnation that sent the data *)
          if e = t.epoch then Hashtbl.remove t.out (src, seq)
          else begin
            t.st_stale <- t.st_stale + 1;
            if Obs.enabled () then
              Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_stale { src })
          end
      | None ->
          (* raw Byzantine traffic: pass through, unsequenced *)
          t.st_raw <- t.st_raw + 1;
          delivered := (src, u) :: !delivered)
    incoming;
  List.iter
    (fun (src, e, seq) ->
      t.st_acks <- t.st_acks + 1;
      if Obs.enabled () then
        Obs.emit ~pid:t.tr.Transport.pid (Obs.Link_ack { dst = src; seq });
      t.tr.Transport.send ~dst:src (Univ.inj renv_key (Ack (e, seq))))
    (List.rev !to_ack);
  retransmit_due t;
  List.rev !delivered

let as_transport (t : t) : Transport.t =
  {
    Transport.pid = t.tr.Transport.pid;
    n = t.tr.Transport.n;
    send = (fun ~dst payload -> send t ~dst payload);
    poll_all = (fun () -> poll_all t);
  }
