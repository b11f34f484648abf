(** Differential conformance suite between the two protocol drivers.

    A [work] value — derived deterministically from a (protocol, seed)
    pair — fully describes one workload: system size, which pids run
    scripted Byzantine adversaries (and their {!Lnd_byz.Byz_script}
    genomes), how many values the writer writes, and each correct
    reader's explicit operation program. {!plan} builds it once, over
    the protocol core's own register names, with one
    {!Lnd_byz.Byz_script.strategy} per scripted pid; the deterministic
    simulator (driver #1, {!system}), the OCaml 5 domains backend
    (driver #2, [Parallel.run]) and the model checker
    ([Lnd_fuzz.Mcheck]) run it with the work's {!genomes}, the scenario
    fuzzer ([Lnd_fuzz.Fuzz]) with named strategies. Each run folds into
    a {!History.t} judged by the one checker per protocol
    below.

    The plan is also the one way to run a register on the simulator
    outside the suite: a per-protocol plan ({!sticky_plan}, ...) run as
    a {!session}, whose clients of jobs ({!write_sticky}, ...) can be
    spawned before or between runs.

    The sim driver additionally renders each history to a canonical
    one-line string and compares it byte-for-byte against the committed
    pre-refactor golden baselines
    ([test/fixtures/diff/golden_sim.txt]). *)

open Lnd_support
open Lnd_history
open Lnd_sticky
open Lnd_verifiable

type proto = Sticky | Verifiable | Testorset

val proto_name : proto -> string
val proto_of_name : string -> proto option
val all_protos : proto list

type item = I_read | I_verify of Value.t | I_test

type work = {
  seed : int;
  proto : proto;
  n : int;
  f : int;
  tos_verifiable : bool;
      (** test-or-set backend: which Observation 25 construction *)
  scripts : (int * int list) list;
      (** Byz_script genome per actually-faulty pid *)
  script_value : Value.t;  (** the value scripted adversaries claim *)
  writes : int;  (** writer values (testorset: SETs) *)
  programs : (int * item list) list;  (** per correct reader pid *)
}

val value_pool : Value.t array
(** The values the (correct) writer writes, in order, cycling. *)

val generate : proto:proto -> int -> work
(** Deterministic in (proto, seed). Always n >= 3f + 1 with at most f
    actually-faulty pids and a correct writer (pid 0), so every correct
    operation terminates on both backends. *)

val byzantine_pids : work -> int list

val genomes : work -> (int * Lnd_byz.Byz_script.strategy) list
(** [work.scripts] as genome strategies claiming [work.script_value]. *)

val describe : work -> string

(** {2 Spec-level acceptance: the one judge}

    Each checker runs the protocol's observational monitors (test-or-set:
    its stickiness check, Definition 20) and then, unless the history is
    over {!byzlin_op_cap}, the exhaustive Byzantine-linearizability
    search. [Ok true]: the search ran and accepted; [Ok false]: the
    history was over the cap or the search gave up, so only the monitors
    judged it. *)

val byzlin_op_cap : int
(** Histories above this many completed operations are judged by the
    monitors only (the exhaustive search is exponential). *)

val check_sticky_history :
  correct:(int -> bool) ->
  (Spec.Sticky_spec.op, Spec.Sticky_spec.res)
  History.t ->
  (bool, string) result
(** Uniqueness (which includes stickiness, Observation 18) and validity,
    then Theorem 19. *)

val check_verifiable_history :
  correct:(int -> bool) ->
  (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res)
  History.t ->
  (bool, string) result
(** Relay, validity and unforgeability, then Theorem 14. *)

val check_testorset_history :
  correct:(int -> bool) ->
  (Spec.Testorset_spec.op, Spec.Testorset_spec.res)
  History.t ->
  (bool, string) result
(** A correct TEST=1 never precedes a correct TEST=0, then
    Observation 25. *)

(** {2 Canonical history rendering} *)

val render_sticky :
  (Spec.Sticky_spec.op, Spec.Sticky_spec.res)
  History.t ->
  string

val render_verifiable :
  (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res)
  History.t ->
  string

val render_testorset :
  (Spec.Testorset_spec.op, Spec.Testorset_spec.res)
  History.t ->
  string

(** {2 The workload plan}

    Everything both drivers need to run a workload, written over the
    core's register names (['reg]), the protocol's history operations
    (['op]) and results (['res]). *)

(** What a client passes from one of its jobs to the next: a reader's
    round counter and the writer's written-set. *)
type carry = { ck : int; written : Value.Set.t }

val carry0 : carry
(** A client's carry before its first job: counter 0, nothing written. *)

(** One client operation: its history op, its Obs span (name and
    argument), the core program — built when the job starts, from the
    carry the client's earlier jobs left — and what becomes of the
    program's result: [result] gives the next job's carry and the
    history result, [text] the span's closing text (called only while a
    sink is installed). *)
type ('reg, 'op, 'res) job =
  | Job : {
      op : 'op;
      span : string * string option;
      prog : carry -> ('reg, 'a) Lnd_support.Machine.prog;
      result : carry -> 'a -> carry * 'res;
      text : 'a -> string;
    }
      -> ('reg, 'op, 'res) job

type ('reg, 'op, 'res) plan = {
  layout : 'c. 'c Lnd_support.Machine.allocator -> 'reg -> 'c;
      (** the core's register layout ({!Lnd_sticky.Sticky_core.layout}
          or {!Lnd_verifiable.Verifiable_core.layout}) *)
  correct : bool array;  (** by pid: not in the Byzantine set *)
  helps : (int * ('reg, unit) Lnd_support.Machine.prog) list;
      (** Help program per correct pid, ascending *)
  scripts :
    (int * Lnd_byz.Byz_script.strategy * ('reg, unit) Lnd_support.Machine.prog)
    list;
      (** each scripted pid's strategy and its program, in the order
          the plan was given them *)
  clients : (int * ('reg, 'op, 'res) job list) list;
      (** the clients a session spawns with the plan: for {!plan}, the
          writer (pid 0, if correct), then each correct reader in
          [work.programs] order; none for the per-protocol plans *)
  fiber_names : string * (int -> string);
      (** the sim's name for the writer's fiber, and a reader's by pid *)
  judge :
    correct:(int -> bool) ->
    ('op, 'res) History.t ->
    (bool, string) result;
  render : ('op, 'res) History.t -> string;
}

type any_plan = Plan : ('reg, 'op, 'res) plan -> any_plan

(** {3 Jobs}

    Each takes the system's {!Lnd_support.Quorum.t} where its core
    needs the thresholds, and a reader's pid; the carry supplies the
    rest. *)

val write_sticky :
  Quorum.t ->
  Value.t ->
  (Sticky_core.reg, Spec.Sticky_spec.op, Spec.Sticky_spec.res) job

val read_sticky :
  Quorum.t ->
  pid:int ->
  (Sticky_core.reg, Spec.Sticky_spec.op, Spec.Sticky_spec.res) job

val write_verifiable :
  Value.t ->
  (Verifiable_core.reg, Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) job
(** Adds the value to the carry's written-set. *)

val sign :
  Value.t ->
  (Verifiable_core.reg, Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) job
(** SIGN against the carry's written-set. *)

val read_verifiable :
  (Verifiable_core.reg, Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) job

val verify :
  Quorum.t ->
  pid:int ->
  Value.t ->
  (Verifiable_core.reg, Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) job

(** Test-or-set over a sticky register ([_sticky]) or a verifiable one
    ([_verifiable]), Observation 25. *)

val set_sticky :
  Quorum.t ->
  (Sticky_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) job

val test_sticky :
  Quorum.t ->
  pid:int ->
  (Sticky_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) job

val set_verifiable :
  (Verifiable_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) job
(** Fails the client if its SIGN fails. *)

val test_verifiable :
  Quorum.t ->
  pid:int ->
  (Verifiable_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) job

(** {3 Plans}

    A register's plan with no clients: the pids in [byzantine] faulty —
    no Help program, and only those in [scripts] run an adversary — and
    the protocol's judge and renderer. A strategy that does not apply
    raises [Invalid_argument] ([Lnd_byz.Byz_sticky.prog],
    [Lnd_byz.Byz_verifiable.prog]). *)

val sticky_plan :
  Quorum.t ->
  byzantine:int list ->
  scripts:(int * Lnd_byz.Byz_script.strategy) list ->
  (Sticky_core.reg, Spec.Sticky_spec.op, Spec.Sticky_spec.res) plan

val verifiable_plan :
  Quorum.t ->
  byzantine:int list ->
  scripts:(int * Lnd_byz.Byz_script.strategy) list ->
  (Verifiable_core.reg, Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) plan

val testorset_sticky_plan :
  Quorum.t ->
  byzantine:int list ->
  scripts:(int * Lnd_byz.Byz_script.strategy) list ->
  (Sticky_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) plan

val testorset_verifiable_plan :
  Quorum.t ->
  byzantine:int list ->
  scripts:(int * Lnd_byz.Byz_script.strategy) list ->
  (Verifiable_core.reg, Spec.Testorset_spec.op, Spec.Testorset_spec.res) plan

val plan :
  work ->
  scripts:(int * Lnd_byz.Byz_script.strategy) list ->
  byzantine:int list ->
  broken:bool ->
  any_plan
(** The plan of [work]'s protocol, as above, with the work's clients
    ([work.scripts] runs only as {!genomes}). [broken] substitutes cores
    whose final decision step is corrupted (pure and
    termination-preserving): a reader that claims a value no workload
    writes, a verifier that always accepts, a tester that returns the
    impossible bit 2. A plan holds no run state: its clients pass theirs
    along in carries. *)

(** {2 Driver #1: the deterministic simulator} *)

type run = {
  ops : int;  (** completed operations in the history *)
  steps : int;  (** scheduler steps (sim) or machine turns (domains) *)
  verdict : (unit, string) result;
}

(** A plan on the simulator. *)
type ('reg, 'op, 'res) session = {
  space : Lnd_shm.Space.t;
  sched : Lnd_runtime.Sched.t;
  regs : 'reg -> Lnd_shm.Register.t;  (** the layout, allocated in [space] *)
  correct : bool array;
  daemon :
    pid:int -> name:string -> ('reg, unit) Lnd_support.Machine.prog -> unit;
      (** spawn one more daemon machine fiber running the program, as
          the session spawns the plan's help and script daemons: for a
          crashing process's Help, or a Byzantine program a scenario
          turns on between runs *)
  client : pid:int -> name:string -> ('reg, 'op, 'res) job list -> unit;
      (** spawn one more client machine fiber, for any pid (Byzantine
          ones too), before a run or between runs; it starts from the
          carry that pid's previous client carries now, {!carry0} for
          its first *)
  history : unit -> ('op, 'res) History.t;
      (** every client's operations so far; one in flight, or in a
          killed client, is incomplete *)
}

val session :
  Lnd_runtime.Policy.t -> ('reg, 'op, 'res) plan -> ('reg, 'op, 'res) session
(** A Space and a Sched choosing by [policy], the layout allocated in
    the Space, then one machine fiber ({!Lnd_runtime.Sched.spawn_machine})
    per program — help daemons ([help<pid>], with their HELP spans),
    script daemons (named by {!Lnd_byz.Byz_script.name}:
    [byz-script<pid>] for a genome), the plan's clients — in that order,
    which fixes the fiber ids. A client carries its job cursor, its
    {!carry} and its finished history entries as values; each job stamps
    its invocation and response around its span and its program. Once
    {!Lnd_runtime.Sched.journal} switched its journal on, as the model
    checker does, and while no Obs sink is installed, the session can
    rewind ({!Lnd_runtime.Sched.rewind}), its history with it. *)

type system = {
  space : Lnd_shm.Space.t;
  sched : Lnd_runtime.Sched.t;  (** not run yet *)
  correct : bool array;
  verdict : unit -> (bool, string) result;
      (** once the run stopped: no correct fiber failed, then the
          plan's judge over the recorded history *)
  ops : unit -> int;  (** completed operations recorded so far *)
  rendered : unit -> string;  (** the canonical history so far *)
}

val system : Lnd_runtime.Policy.t -> any_plan -> system
(** The plan's {!session}, judged and rendered. *)

val quiesce : system -> (bool, string) result
(** Run the system to quiescence within 8,000,000 steps, then its
    [verdict] ([Error] if the budget ran out). *)

val sim : work -> run
(** Run [work]'s plan (Byzantine set: the scripted pids) on {!system}
    to quiescence, under [Policy.random] seeded from the work. *)

val sim_line : work -> string
(** [describe] + verdict + canonical history: one golden-baseline line.
    The only place a history is rendered: {!sim} and [Parallel.run]
    judge theirs without rendering it. *)

(** {2 Trace parity}

    A traced run derives a {e second}, independent history from the
    recorded operation spans ({!Lnd_history.Trace_replay}) and judges it
    with the same checkers as the direct one. Operation spans bracket
    the recorded [[inv, ret]] intervals on the domains backend and sit
    just inside them on the sim, with no scheduling point between a
    span's open or close and the adjacent history tick, so on both the
    trace-derived precedence order is a subset of the direct history's
    and a direct [Ok] forces a trace [Ok]. *)

val parity_keep : Lnd_obs.Obs.event -> bool
(** Keep only operation spans: they are all the parity fold reads, and
    the domains backend does not record register accesses yet. *)

type trace_info = {
  t_ops : int;  (** completed operations in the trace-derived history *)
  t_verdict : (unit, string) result;  (** same checkers as {!run} *)
  t_nesting : string option;  (** {!Lnd_obs.Trace.check} verdict *)
  t_dropped : int;  (** arena-overflow drops (0 = trace complete) *)
  t_events : int;  (** merged events, including synthesized closes *)
  t_trace : Lnd_obs.Trace.t;  (** the finished trace, for export *)
}

val fold_trace : work -> Lnd_obs.Trace.t -> trace_info
(** Fold a finished trace of [work] into the spec history of its
    protocol and judge it. Call {!Lnd_obs.Trace.finish} first. *)

val sim_traced : ?keep:(Lnd_obs.Obs.event -> bool) -> work -> run * trace_info
(** {!sim} with an arena sink installed for the duration ([keep]
    defaults to {!parity_keep}); the golden-baseline path stays
    untraced. *)

(** {2 Golden baselines (sim driver)} *)

val golden_seed_from : int
val golden_seed_count : int

val golden_lines : from:int -> count:int -> string list
(** [sim_line] over seeds [from .. from+count-1] times {!all_protos}. *)

val write_golden : string -> unit

val check_golden : string -> (int * string * string) list
(** Mismatching (line number, expected, got) triples against the
    committed fixture; [[]] means byte-identical. *)
