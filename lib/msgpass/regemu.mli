(** SWMR register emulation over Byzantine message passing — the
    Section 9 corollary: everything in the paper lifts to message-passing
    systems because SWMR registers are implementable there for n > 3f
    (citing Mostéfaoui-Petrolia-Raynal-Jard [9]).

    Writes are disseminated with Srikanth-Toueg echo thresholds
    (unforgeability + relay: what one correct replica accepts, all
    eventually accept); replicas keep the largest accepted
    (timestamp, value) per register and ack the owner; a write returns
    after n-f acks. Reads collect replies from n-f distinct replicas and
    trust the largest pair reported identically by >= f+1 of them (at
    least one correct voucher), retrying while replicas converge.
    Replies are batched per destination per poll iteration — without
    batching, aggregate reply work exceeds the replicas' fair share of
    scheduling steps and backlogs grow without bound.

    Each process owns a single transport endpoint and the replica daemon
    is its sole pump: it dispatches replica-bound traffic into replica
    state and client-bound traffic (acks, read replies) into the client
    tables that blocking operations observe between yields. This is what
    lets the whole emulation run unchanged over the fault-hardened stack
    ({!Rlink} over {!Faultnet}) via {!create_on}.

    Fidelity note (DESIGN.md §4.7): simpler than [9]'s full atomic
    construction; genuineness and per-replica monotonicity are
    guaranteed, full atomicity is validated empirically per recorded run.
    A Byzantine {e owner} can feed the emulation inconsistent writes —
    exactly what the sticky register stacked on top must survive. *)

open Lnd_support

(** Protocol messages; exposed so Byzantine test fibers can inject raw
    (even fabricated) protocol traffic. *)
type emsg =
  | Wreq of int * int * Univ.t (** reg, ts, v — write request from the owner *)
  | Wecho of int * int * Univ.t
  | Wack of int * int (** reg, ts *)
  | Rreq of int * int (** reg, rid *)
  | Rrep of int * int * int * Univ.t (** reg, rid, ts, v *)
  | Sreq of int (** rid — state-transfer request from a recovering peer *)
  | Srep of int * (int * int * Univ.t) list
      (** rid, full view: one (reg, ts, v) per register the replier holds *)
  | Batch of emsg list
      (** a replica's bundled replies to one destination from one poll
          iteration (caps the per-iteration reply cost at n sends) *)

val emsg_equal : emsg -> emsg -> bool
val emsg_key : emsg Univ.key

val fp : Univ.t -> string
(** Value fingerprint used for deterministic tie-breaking and echo-count
    bucketing. *)

type t = {
  mk_ep : pid:int -> Transport.t;
  n : int;
  q : Quorum.t;
  metas : (int, meta) Hashtbl.t;
  mutable next_reg : int;
  mutable sent : int;  (** endpoint-level sends (see {!messages_sent}) *)
  eps : Transport.t option array;
  replicas : replica option array;
  clients : client option array;
  pwals : Lnd_durable.Wal.t option array;
      (** per-pid journal; [None] (the default) keeps the emulation
          byte-identical to the volatile implementation *)
  mutable codec : ((Univ.t -> string) * (string -> Univ.t)) option;
}

and meta = { owner : int; init : Univ.t; init_fp : string  (** [fp init] *) }

(** Per-process replica state (transparent for test introspection). *)
and replica = {
  current : (int, int * string * Univ.t) Hashtbl.t;
      (** reg -> accepted (ts, fingerprint, value) *)
  rep_echoes : (int * int * string, Univ.t * Set.Make(Int).t ref) Hashtbl.t;
  rep_echoed : (int * int * string, unit) Hashtbl.t;
  rep_accepted : (int * int * string, unit) Hashtbl.t;
  rep_last_rreq : (int, int * int) Hashtbl.t;
      (** src -> (reg, rid): latest outstanding read request per
          requester — what a recovered incarnation must re-answer *)
  mutable serving : bool;
      (** [false] while recovering: read requests are recorded but
          answered only once state transfer completes *)
  outbox : (int, emsg list ref) Hashtbl.t;
      (** dst -> the replies one pump pass batches for it; kept from
          pass to pass so a pass allocates no table *)
}

(** Per-process client state. *)
and client = {
  mutable next_rid : int;
  wts : (int, int ref) Hashtbl.t;
  acks : (int * int, Set.Make(Int).t ref) Hashtbl.t;
  reps : (int, (int * int * Univ.t) list ref) Hashtbl.t;
  sreps : (int, (int * (int * int * Univ.t) list) list ref) Hashtbl.t;
      (** rid -> (src, full view) state-transfer replies *)
}

val create : Lnd_shm.Space.t -> n:int -> f:int -> t
(** Fresh emulation over a perfectly reliable network in [space] — each
    pid's endpoint comes from [Transport.endpoints]. Requires n > 3f. *)

val create_on : mk_ep:(pid:int -> Transport.t) -> n:int -> f:int -> t
(** General constructor: [mk_ep ~pid] builds the single endpoint each
    pid's traffic flows through — e.g. an {!Rlink} transport over a
    {!Faultnet} port for the fault-hardened stack. The emulation never
    looks below this seam; harnesses that want raw Byzantine injection
    keep their own handle on the underlying network. Requires n > 3f. *)

val replica_daemon : t -> pid:int -> unit
(** The replica daemon each correct process must run (daemon fiber). It
    is also the pid's only message pump: blocking client operations on
    the same pid rely on it for their acks and read replies. *)

val allocator : t -> Lnd_runtime.Cell.allocator
(** Allocate emulated registers (call during system setup, before running
    fibers). Feed the cells straight into [Verifiable.alloc_with] /
    [Sticky.alloc_with]. Ownership is enforced; SWSR readability is not. *)

val messages_sent : t -> int
(** Total endpoint-level sends across all pids (counted at the
    {!Transport} seam, so it is stack-agnostic). *)

(** {2 Crash-recovery}

    Durability discipline: every state mutation is journalled at
    mutation time; a WAL sync barrier runs before any send that EXPOSES
    the mutated state (write acks here; everything else behind
    {!Rlink}'s deferred-ack barrier). A recovered incarnation therefore
    restores state at least as advanced as anything another process
    observed from its predecessor — crashes can lose progress, never
    promises.

    Record grammar (shared log with {!Rlink}'s ["E"]/["S"]/["U"]
    records; the value encoding is always the last field and must be
    newline-free): ["W <reg> <ts>"], ["A <reg> <ts> <venc>"] (adopted),
    ["H ..."] (echoed), ["X <src> ..."] (echo received), ["P ..."]
    (accepted), ["R <src> <reg> <rid>"] (outstanding read request). *)

val set_codec :
  t -> enc:(Univ.t -> string) -> dec:(string -> Univ.t) -> unit
(** Register the value codec journal records use. [dec (enc v)] must
    fingerprint ({!fp}) equal to [v]; [enc v] must be newline-free.
    Required before {!attach_wal}. *)

val attach_wal : t -> pid:int -> Lnd_durable.Wal.t -> unit
(** Journal [pid]'s protocol state through [wal] from now on. Share the
    same WAL with the pid's {!Rlink} so one sync barrier covers both
    layers. Raises [Invalid_argument] if no codec is set. *)

val forget : t -> pid:int -> unit
(** Drop [pid]'s volatile state (endpoint, replica, client tables) — the
    crash. The next [pid] state access starts empty, ready for
    {!restore_record} replay. *)

val begin_recovery : t -> pid:int -> unit
(** Enter recovery mode: [pid] records (and journals) incoming read
    requests but defers the replies until {!recover_and_serve} finishes
    state transfer. *)

val restore_record : t -> pid:int -> string -> bool
(** Replay one recovered journal record if this layer owns it
    (["W"/"A"/"H"/"X"/"P"/"R"]); [false] means the record belongs to
    another grammar (feed {!Rlink.restore_record} first). Replay is
    idempotent and order-insensitive. *)

val snapshot_records : t -> pid:int -> string list
(** [pid]'s protocol state compacted to records — feed to
    {!Rlink.enable_snapshots} as the [extra] thunk. *)

val recover_and_serve : t -> pid:int -> unit
(** The fiber body a restarted process runs: state-transfer catch-up
    (full views from >= n-f peers, adopting any (reg, ts, v) vouched by
    >= f+1 of them that beats the restored state), re-announce of
    everything the predecessor may have had in flight (echoes, acks,
    read replies — all idempotent downstream), then the ordinary
    {!replica_daemon} loop. *)
