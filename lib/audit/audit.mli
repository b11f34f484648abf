(** Forensic accountability: online Byzantine blame attribution.

    An auditor is a passive {!Lnd_obs.Obs.sink} — attach it next to a
    recording trace with {!Lnd_obs.Obs.fanout} — that maintains a
    per-process evidence ledger over the event stream and files an
    {!accusation} whenever a process's claims or register writes
    contradict what a correct process could have done.

    The input is receiver-side attribution: every protocol payload is
    recorded as an [Obs.Claim] by its receiver the moment it is decoded
    (before the receiver acts on it), so each utterance on the wire is
    charged to its author independently of anybody's later behaviour —
    the paper's "you can lie but not deny", operationalised.

    Soundness contract — the two guarantees the test suite enforces over
    seeded chaos sweeps:

    - {b zero false blame}: every rule fires only on behaviour no
      correct process can exhibit under any schedule, message faults
      (drops, duplications, delays, partitions) or crash-restarts.
      Justification thresholds are deliberately weaker than the
      protocols' trigger conditions (f+1 where protocols wait for 2f+1),
      and claims always causally follow their justification on the
      stream, so an online check never outruns the evidence. Slowness
      ([Watchdog_stall]) is counted but never charged, and a consistent
      liar (e.g. a false witness that sticks to its story) is never
      accused — such lies are admissible by the model.
    - {b recall}: every detectable injected lie — equivocation, forged
      or unjustified claims, garbage payloads, sticky/witness
      retractions, stale or ill-typed register writes, replayed link
      incarnation epochs, verified-but-never-signed values — produces an
      accusation against the lying pid, with event indices as evidence.

    Detector catalogue (see DESIGN.md §4h for the full table):
    equivocation, forged-init, unjustified-vouch, write-equivocation,
    forged-wreq, unannounced-write, unjustified-wecho, unjustified-wack,
    unjustified-reply, unjustified-state, garbage, epoch-replay,
    verify-without-sign, and the register rules over [Shm_access]
    writes. The register rules are the one statement of the appendix
    observations that Theorems 14 and 19 rest on:
    - counter-regression: a C_k counter falls (Observations 28, 94);
    - witness-retraction: a witness set R_i loses a value
      (Observation 30);
    - sticky-overwrite: a sticky E_i or R_i changes, or goes back to ⊥,
      once set (Observations 92, 93);
    - stale-stamp: an R_{j,k} reply's stamp does not increase (a correct
      helper answers each C_k round once);
    - mailbox-retraction: an R_{j,k} row retracts its stamped witness set
      (Observation 30) or its stamped sticky value (Observations 92, 93);
    - ill-typed-write: a register gets a value of the wrong codec. *)

type t

val create :
  ?keep:(Lnd_obs.Obs.event -> bool) -> q:Lnd_support.Quorum.t -> unit -> t
(** [create ~q ()] builds an auditor judging with the thresholds of
    quorum configuration [q] (the same (n, f) the audited protocols
    run under). [keep] mirrors {!Lnd_obs.Trace.create}: span open/close
    events are always processed, other events only when [keep] accepts
    them — give the auditor and the recording trace the same filter and
    every {!evidence} index equals the line number of the exported
    JSONL trace. Default: keep everything. *)

val sink : t -> Lnd_obs.Obs.sink
(** The sink to fan out to (see {!Lnd_obs.Obs.fanout}). *)

val observe : t -> Lnd_obs.Obs.event -> unit
(** Feed one event directly — for replaying recorded event lists in
    tests; [sink] is [observe] behind the seam. *)

type evidence = {
  ev_index : int;  (** index into the kept event stream (= JSONL line) *)
  ev_at : int;  (** logical-clock stamp of the event *)
  ev_pid : int;  (** pid the event was attributed to (the observer) *)
  ev_note : string;
}

type accusation = {
  acc_pid : int;  (** the process being blamed *)
  acc_rule : string;  (** detector that fired, e.g. ["equivocation"] *)
  acc_detail : string;
  acc_evidence : evidence list;
}

type report = {
  rp_accusations : accusation list;
      (** deduplicated per (pid, rule), sorted by (pid, rule); each
          carries the first evidence that proved it *)
  rp_events : int;  (** events processed (after [keep]) *)
  rp_claims : int;  (** receiver-side claims among them *)
  rp_stalls : int;  (** watchdog stall diagnoses — never accusations *)
}

val finalize : ?writer:int -> t -> report
(** Close the ledger and return the verdicts. Runs the one end-of-stream
    detector, verify-without-sign: a VERIFY span that returned [true]
    for a value the [writer] (default pid 0) never successfully SIGNed
    accuses the writer. Idempotent. *)

val accused : report -> int list
(** Distinct accused pids, ascending. *)

val report_to_json : report -> string
(** The whole report as one JSON object (stable field order). *)

val pp_report : Format.formatter -> report -> unit
val pp_accusation : Format.formatter -> accusation -> unit
