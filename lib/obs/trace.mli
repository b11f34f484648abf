(** Recording sink: turns {!Obs} events into replayable artifacts.

    A trace is a set of {e per-domain event arenas} — fixed-capacity
    buffers preallocated once per recording domain, so the record hot
    path writes into an array slot and allocates no heap words — plus
    enough bookkeeping to force-close spans whose fiber was killed
    mid-operation (Help daemons at scenario teardown). Overflowing an
    arena never truncates silently: further events bump a per-domain
    [dropped] counter surfaced by {!dropped} and {!check}.

    A single-domain trace reads back in emission order, byte-identical
    to the pre-arena recorder. A multi-domain trace merges
    deterministically on the clock stamps: the domains backend stamps
    every event through one fetch-and-add clock, so stamps are unique
    and the merged stream is totally ordered regardless of how the
    domains raced; equal stamps (custom clocks only) tie-break stably on
    arena registration order.

    Export formats:

    - JSONL: one event per line, fixed field order — byte-identical for
      a fixed seed, suitable as a committed golden fixture;
    - Chrome trace ([chrome://tracing] / Perfetto): spans as async b/e
      pairs keyed by span id, everything else as instant events. *)

type t

val default_capacity : int
(** Default per-domain arena capacity (events), [2^20] — sized so the
    heaviest seeded chaos runs (~676k full-trace events) fit with
    headroom. *)

val create : ?keep:(Obs.event -> bool) -> ?capacity:int -> unit -> t
(** [create ~keep ()] records events satisfying [keep] (default: all).
    Span open/close events are always recorded regardless of [keep] so
    the causal skeleton stays intact. [capacity] bounds each domain's
    arena (default {!default_capacity}); arenas are allocated lazily on
    a domain's first recorded event. *)

val sink : t -> Obs.sink
(** The sink to pass to {!Obs.install}. Safe for concurrent emission
    from multiple domains: each domain records into its own arena. *)

val release_domain : unit -> unit
(** Drop the calling domain's cached arena, so a long-lived domain that
    has stopped recording pins no buffer and never records into a stale
    one. Recording again re-finds (or registers) its arena. The domains
    driver calls this on a pooled worker after each body. *)

val finish : t -> unit
(** Close every span still open, deepest first, with synthetic
    [Span_close { aborted = true }] events stamped at the last recorded
    time. Idempotent. Call after the run — once every recording domain has
    stopped (the domains driver's [run] has returned) — before
    export. *)

val events : t -> Obs.event list
(** Recorded events, merged across arenas into clock order (see the
    module doc); emission order for a single-domain trace. *)

val size : t -> int
(** Number of recorded events (dropped events excluded). *)

val dropped : t -> int
(** Events discarded on arena overflow, summed across domains. [0]
    means the trace is complete. *)

val domains : t -> int
(** Number of per-domain arenas registered (= domains that recorded at
    least one event). *)

val event_to_json : Obs.event -> string
(** One event as a single-line JSON object with fixed field order. *)

val to_jsonl : t -> string
(** All events, one JSON object per line, trailing newline. *)

val to_chrome : t -> string
(** Chrome-trace JSON array of the recorded events. *)

val check_nesting : Obs.event list -> string option
(** [None] if spans are well-nested: every close matches an open, no
    span closes while a child is open, no id opens twice, and nothing is
    left open at the end. Otherwise a description of the first
    violation. *)

val check : t -> string option
(** Dropped-aware well-nestedness: a trace that lost events to arena
    overflow fails loudly as known-incomplete (naming the dropped count
    and capacity) instead of letting a truncated stream masquerade as a
    nesting violation — or worse, pass. Otherwise {!check_nesting} on
    the merged events. *)

val diff : expected:string -> actual:string -> string option
(** Compare two JSONL exports. [None] when byte-identical; otherwise a
    structured description of the first divergent event (index, expected
    line, actual line). *)
