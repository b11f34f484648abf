(** Observability seam: structured events with causal span ids.

    Every layer of the stack (scheduler, shared memory, links, register
    emulation, WAL, the register algorithms themselves) emits typed events
    through this module. By default no sink is installed and every
    emission is a no-op behind a single [enabled] check, so instrumented
    code costs one branch per probe and allocates nothing. Installing a
    sink (see {!Trace}) turns the same probes into an exact, replayable
    record of a run.

    Span discipline: a span is opened for each register operation
    (WRITE/READ/SIGN/VERIFY, Help rounds, emulated-register ops) and
    every event emitted while it is ambient carries its id. The ambient
    span follows the {e fiber}, not the call stack: {!Lnd_runtime.Sched}
    saves and restores it at every fiber switch, so concurrent operations
    interleave without stealing each other's children.

    Domain safety: the sink and clock hook live in [Atomic] cells
    (installed by the driving domain before workers run, read
    everywhere), span ids come from one fetch-and-add counter so they
    are unique across domains, and the ambient span/pid plus the
    parent links of open spans are per-domain state in [Domain.DLS] —
    each domain owns its span chain and domains never race on each
    other's ambient. The sink itself must be domain-safe when domains
    emit concurrently (see {!Trace.arena}).

    Determinism contract: with a sink installed, a fixed seed produces a
    byte-identical event stream on the deterministic simulator; with no
    sink, instrumented code behaves identically to uninstrumented code
    (same scheduling, same output). *)

type access = [ `Read | `Write ]

type verdict =
  | Deliver  (** the network let the message through untouched *)
  | Dropped  (** fair-lossy loss *)
  | Cut  (** partition: link administratively severed *)
  | Dup  (** an extra copy was injected *)
  | Delayed of int  (** held back this many poll rounds *)

(** A message-level claim, emitted by the {e receiver} the moment a
    protocol payload is decoded and before it is acted on. A claim
    attributes the payload to [src] (the transport-level sender), so an
    auditor can cross-examine what each process {e said} independently of
    what any correct process later did about it. *)
type claim =
  | Cl_init of { sender : int; seq : int }
      (** broadcast Init: [src] claims to originate slot [(sender, seq)] *)
  | Cl_vouch of { sender : int; seq : int; tag : string }
      (** broadcast Echo/Ready ([tag]): [src] vouches for [(sender, seq)] *)
  | Cl_wreq of { reg : int; ts : int }  (** emulated-register write request *)
  | Cl_wecho of { reg : int; ts : int }  (** write echo (vouch) *)
  | Cl_wack of { reg : int; ts : int }  (** write acknowledgement *)
  | Cl_rrep of { reg : int; rid : int; ts : int }  (** read reply *)
  | Cl_state of { reg : int; ts : int }
      (** one register triple inside a state-transfer reply *)
  | Cl_garbage  (** a payload that failed to decode at all *)

type kind =
  | Span_open of { name : string; arg : string option; parent : int }
  | Span_close of { name : string; result : string option; aborted : bool }
      (** [aborted] marks spans force-closed by {!Trace.finish} (their
          fiber was killed mid-operation, e.g. a Help daemon). *)
  | Sched_spawn of { fid : int; fname : string; daemon : bool }
  | Sched_switch of { fid : int; fname : string }
  | Sched_exit of { fid : int; fname : string; failed : bool }
  | Shm_access of { access : access; reg : string; value : Lnd_support.Univ.t }
  | Net_verdict of { dst : int; verdict : verdict }
  | Link_data of { dst : int; seq : int; retrans : bool }
  | Link_ack of { dst : int; seq : int }
  | Link_deliver of { src : int; seq : int }
  | Link_dedup of { src : int; seq : int }
  | Link_stale of { src : int }
  | Link_epoch of { src : int; epoch : int }
  | Reg_round of { reg : int; round : string; rid : int }
  | Reg_reply of { reg : int; rid : int; src : int; count : int }
  | Reg_quorum of { reg : int; rid : int; count : int }
  | Wal_append of { bytes : int }
  | Wal_sync of { records : int; latency : int }
      (** [latency]: logical steps between the first unsynced append and
          this barrier. *)
  | Wal_snapshot of { records : int }
  | Wal_recover of { records : int }
  | Disk_crash of { torn : int }
  | Claim of { src : int; claim : claim; fp : string }
      (** receiver-side record of a decoded payload from [src]; [fp] is
          the value fingerprint ([""] where the payload carries none) *)
  | Reg_write_ann of { reg : int; ts : int; fp : string }
      (** the owner declares a write (emitted before the Wreq broadcast,
          so every derived claim has an earlier justification on stream) *)
  | Reg_alloc of { reg : int; owner : int; fp : string }
      (** an emulated register is allocated with this initial value *)
  | Link_incarnation of { epoch : int }
      (** an rlink endpoint (re)starts with this incarnation epoch *)
  | Watchdog_stall of { fid : int; fname : string; op : string; deadline : int }
      (** liveness diagnosis: [fid]/[fname] missed [op]'s [deadline] —
          evidence of slowness, never of lying *)
  | Explore_run of { mode : string; idx : int; depth : int; reason : string }
      (** one explored schedule: [mode] is ["dfs"]/["dpor"]/["swarm"],
          [reason] is ["quiescent"]/["pruned"]/["blocked"] *)
  | Explore_stats of {
      mode : string;
      runs : int;
      pruned : int;
      blocked : int;
      races : int;
      exhausted : bool;
    }
      (** end-of-exploration summary (see {!Lnd_runtime.Explore.result}) *)

type event = { at : int; pid : int; span : int; kind : kind }
(** [at] is the logical clock (see {!set_clock}); [pid] the emitting
    process ([-1] when outside any fiber); [span] the ambient span id
    ([0] = no span). *)

type sink = { emit : event -> unit }

val fanout : sink list -> sink
(** A sink that forwards every event to each of [sinks] in order, so a
    trace recorder and an online auditor can observe the same run. The
    combinator is pure composition: the Null fast-path (no sink
    installed) is untouched and still allocation-free. *)

val install : ?clock:(unit -> int) -> sink -> unit
(** Install a sink and reset span state (the global span counter and the
    calling domain's ambient/parent context). At most one sink is
    active; installing replaces the previous one. *)

val uninstall : unit -> unit
(** Remove the sink: all probes become no-ops again. Resets the clock
    hook, the span counter and the calling domain's ambient/parent
    context, so install/uninstall cycles within one process do not leak
    span ids or parent links into the next trace. *)

val reset_domain : unit -> unit
(** Reset the calling domain's ambient span/pid and parent links, as
    {!install} does for the installing domain. A pooled worker domain
    calls this before each body, so span state left by a previous run
    (say, spans an aborted run never closed) cannot leak into the
    next. *)

val enabled : unit -> bool
(** Cheap guard for call sites: skip argument construction when no sink
    is installed. *)

val set_clock : (unit -> int) -> unit
(** Set the logical-clock hook. [Sched.create] installs one reading its
    step counter whenever a sink is active, so events are stamped with
    scheduler time; the hook must be callable outside any fiber. *)

val now : unit -> int
(** Current logical time per the installed clock hook (0 by default). *)

val emit : ?pid:int -> kind -> unit
(** Emit an event stamped with the current clock, ambient span and — if
    [pid] is omitted — the ambient pid. No-op without a sink. *)

(** {2 Spans} *)

val span_open : ?pid:int -> name:string -> ?arg:string -> unit -> int
(** Open a span as a child of the ambient span, make it ambient, and
    return its id. Returns [0] (the null span) without a sink. *)

val span_close : ?pid:int -> ?result:string -> name:string -> int -> unit
(** Close a span and restore its parent as ambient. Closing the null
    span [0] is a no-op. *)

(** {2 Ambient state (scheduler use)} *)

val ambient : unit -> int
(** The ambient span id (what an [emit] would be tagged with). *)

val ambient_pid : unit -> int
(** The ambient pid (what an [emit] without [?pid] would carry). *)

val set_ambient : span:int -> pid:int -> unit
(** Swap the calling domain's ambient span and pid wholesale. The
    scheduler calls this at each fiber switch so spans follow fibers,
    not the host call stack; the domains backend calls it before each
    process turn so events land under that process's span. *)
