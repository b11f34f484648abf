(** Reliable links over a lossy transport: sequence numbers, ack-driven
    retransmission with capped exponential backoff (in logical-clock
    ticks), duplicate suppression, and incarnation epochs for
    crash-recovery.

    Stack this on a {!Faultnet} transport to recover exactly-once
    delivery for the protocol layer: safety (at-most-once delivery,
    sender authenticity) holds over any fault plan; liveness
    (exactly-once eventual delivery) holds over fair-lossy plans —
    bounded drop bursts, healed partitions. Over a perfectly reliable
    transport the layer is inert: retransmissions stay at 0 and the only
    overhead is one ack per data message.

    {b Epochs.} Dedup state keyed only by pid collides across restarts:
    a recovered peer restarting its sequence space would have every
    fresh message swallowed as a duplicate. Every envelope therefore
    carries the sender's incarnation epoch; a receiver seeing a higher
    epoch resets that source's dedup state, drops lower-epoch
    stragglers, and acks name the epoch they settle. Owners make a new
    epoch durable with {!journal_epoch} BEFORE the incarnation's first
    send, so no two incarnations of a correct process share an epoch.

    {b Persistence.} With a {!Lnd_durable.Wal} attached, fresh
    deliveries are journalled and their acks deferred to the next poll,
    behind a WAL sync barrier: an ack on the wire implies the delivery —
    and everything the consumer journalled while handling it — is
    durable, so a crashed receiver either remembers a delivery or gets
    it retransmitted. Without a WAL behaviour is identical to the
    volatile implementation (immediate acks, no journalling).

    Delivery is deliberately NOT FIFO: consumers (threshold broadcasts,
    the register emulation) are reorder-insensitive, and sequence
    numbers exist for dedup and retransmission only. Raw payloads that
    are not rlink envelopes (Byzantine injection) pass through
    unsequenced and unacked.

    Retransmission is driven by {!poll_all} — the owner must pump it
    regularly (protocol daemons poll in a loop, so they do). A poll
    scans the unacked messages only once the clock has reached the
    earliest retransmission deadline, which every send and
    retransmission lowers and a scan that finds nothing due raises. *)

open Lnd_support

(** The wire envelope — [Data (epoch, seq, payload)] / [Ack (epoch,
    seq)]. Exposed so tests and Byzantine fibers can forge protocol
    traffic. *)
type renv = Data of int * int * Univ.t | Ack of int * int

val renv_key : renv Univ.key

type cfg = {
  base_backoff : int;  (** ticks before the first retransmission *)
  max_backoff : int;  (** backoff cap (doubling stops here) *)
}

val default_cfg : cfg
(** Safely above the ack round-trip of fault-free scheduling, so a
    reliable network sees zero retransmissions. *)

type t

val create : ?cfg:cfg -> ?epoch:int -> ?wal:Lnd_durable.Wal.t -> Transport.t -> t
(** [epoch] (default 0) is this incarnation's epoch — after a restart,
    recover it with {!epoch_of_records} and pass the successor. [wal]
    turns on delivery journalling and deferred acks. *)

val epoch : t -> int

val send : t -> dst:int -> Univ.t -> unit
val broadcast : t -> Univ.t -> unit

val poll_all : t -> (int * Univ.t) list
(** Deliver new messages (duplicates and stale epochs suppressed, acks
    consumed), ack every received data copy (deferred behind a WAL sync
    when persistent), retransmit every unacked message whose backoff
    expired, and snapshot the journal when due. *)

val as_transport : t -> Transport.t
(** The reliable link packaged as a {!Transport.t} — the protocol layer
    cannot tell it from a raw network. *)

val pending : t -> int
(** Unacked in-flight messages (0 at quiescence on a fair-lossy link). *)

(** {2 Crash-recovery} *)

val journal_epoch : Lnd_durable.Wal.t -> int -> unit
(** Journal and sync an incarnation epoch ("E <epoch>"). MUST complete
    before the incarnation's first send: a crash during this sync means
    the incarnation never spoke, so its epoch was never observed. *)

val epoch_of_records : string list -> int
(** The highest epoch journalled in a recovered record list; [-1] if
    none (a fresh log). The next incarnation uses the successor. *)

val restore_record : t -> string -> bool
(** Replay one recovered record if this layer owns it ("E"/"S"/"U" —
    epochs and delivered sequence numbers); [false] means the record
    belongs to the consumer's grammar. *)

val restore_seen : t -> src:int -> epoch:int -> seq:int -> unit
val restore_seen_upto : t -> src:int -> epoch:int -> upto:int -> unit

val seen_records : t -> string list
(** The dedup state (and own epoch) compacted to records — what a
    snapshot must preserve. *)

val enable_snapshots : t -> every:int -> extra:(unit -> string list) -> unit
(** Snapshot-and-truncate the journal whenever [every] records
    accumulated since the last truncation; [extra ()] contributes the
    consumer's compacted records (e.g.
    [Regemu.snapshot_records]). *)

type stats = {
  data_sent : int;
  retransmissions : int;
  acks_sent : int;
  redundant : int;  (** duplicate data suppressed *)
  stale : int;  (** stale-epoch envelopes dropped *)
  raw_passed : int;  (** un-enveloped payloads passed through *)
}

val stats : t -> stats
