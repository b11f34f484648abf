(* Differential conformance suite: one seed derives one workload (system
   size, Byzantine genome scripts, per-reader programs) that both
   backends execute — the deterministic simulator (driver #1, here) and
   the OCaml 5 domains backend (driver #2, Parallel) — and one judge per
   protocol accepts or rejects each run's history.

   A workload is built once, as a plan: the core's register layout, a
   help program per correct pid, the program of each scripted pid's
   Byz_script.strategy (a genome, or a named attack), the writer's and
   each reader's jobs (client operations) and the judge and renderer,
   all written over the core's own register names. The sim driver
   below, Parallel.run and the model checker (Lnd_fuzz.Mcheck) build
   their systems from a plan with the work's genomes; the scenario
   fuzzer (Lnd_fuzz.Fuzz) builds plans with named strategies and runs
   them on the sim driver. A per-protocol plan without clients, run as a
   session with clients of jobs spawned before or between runs, is how
   the tests, the CLI, the bench tables and the examples run a register
   on the simulator.

   The suite asserts three things:
   - the sim run is accepted and its history renders byte-identically to
     the committed pre-refactor golden baselines
     (test/fixtures/diff/golden_sim.txt), which pins the pure-core
     extraction to the old effects-based behaviour;
   - the domains run is accepted by the same judge — real parallelism
     may produce a different (legal) interleaving, so histories are
     compared through the spec, not byte-for-byte;
   - a deliberately broken core (Parallel.run ~broken:true) makes the
     suite fail, so "green" is evidence, not vacuity.

   Workload generation is deterministic in (seed, protocol) and stays in
   the paper's safe zone (n >= 3f + 1, at most f actually-faulty pids,
   correct writer) so operations terminate on the free-running domains
   backend, not just under the step-bounded simulator. *)

open Lnd_support
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Drive = Lnd_runtime.Drive
module Space = Lnd_shm.Space
module Register = Lnd_shm.Register
module History = Lnd_history.History
module Spec = Lnd_history.Spec
module Sspec = Spec.Sticky_spec
module Vspec = Spec.Verifiable_spec
module Tspec = Spec.Testorset_spec
module Monitors = Lnd_history.Monitors
module Byzlin = Lnd_history.Byzlin
module Trace_replay = Lnd_history.Trace_replay
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module S_core = Lnd_sticky.Sticky_core
module V_core = Lnd_verifiable.Verifiable_core
module T_core = Lnd_testorset.Testorset_core
module Byz_script = Lnd_byz.Byz_script
open Machine

type proto = Sticky | Verifiable | Testorset

let proto_name = function
  | Sticky -> "sticky"
  | Verifiable -> "verifiable"
  | Testorset -> "testorset"

let proto_of_name = function
  | "sticky" -> Some Sticky
  | "verifiable" -> Some Verifiable
  | "testorset" -> Some Testorset
  | _ -> None

let all_protos = [ Sticky; Verifiable; Testorset ]

(* One client-program item; which constructors apply depends on the
   protocol (readers only Read on sticky, only Test on test-or-set). *)
type item = I_read | I_verify of Value.t | I_test

type work = {
  seed : int;
  proto : proto;
  n : int;
  f : int;
  tos_verifiable : bool; (* test-or-set backend: Observation 25 choice *)
  scripts : (int * int list) list; (* Byz_script genome per faulty pid *)
  script_value : Value.t; (* the value scripted adversaries claim *)
  writes : int; (* writer values (testorset: SETs) *)
  programs : (int * item list) list; (* per correct reader pid *)
}

let value_pool = [| "a"; "b"; "c" |]

(* Deterministic in (proto, seed); all structure is drawn up front so the
   two backends execute the *same* workload. *)
let generate ~(proto : proto) (seed : int) : work =
  let salt = match proto with Sticky -> 1 | Verifiable -> 2 | Testorset -> 3 in
  let rng = Rng.create ((seed * 7907) + salt) in
  let f = 1 + Rng.int rng 2 in
  let n = (3 * f) + 1 + Rng.int rng 2 in
  let nbyz = Rng.int rng (f + 1) in
  let byz = List.init nbyz (fun i -> n - 1 - i) in
  let script_value =
    match proto with
    | Testorset -> "1"
    | Sticky | Verifiable -> if Rng.bool rng then "a" else "x"
  in
  let scripts =
    List.map
      (fun pid ->
        let len = 2 + Rng.int rng 4 in
        (pid, List.init len (fun _ -> Rng.int rng 6)))
      byz
  in
  let writes = 1 + Rng.int rng 2 in
  let programs =
    List.filter_map
      (fun pid ->
        if pid = 0 || List.mem pid byz then None
        else
          let k = 1 + Rng.int rng 2 in
          Some
            ( pid,
              List.init k (fun _ ->
                  match proto with
                  | Sticky -> I_read
                  | Testorset -> I_test
                  | Verifiable ->
                      if Rng.int rng 4 = 0 then I_read
                      else I_verify (Rng.pick_arr rng value_pool)) ))
      (List.init n (fun i -> i))
  in
  {
    seed;
    proto;
    n;
    f;
    tos_verifiable = Rng.bool rng;
    scripts;
    script_value;
    writes;
    programs;
  }

let byzantine_pids (w : work) : int list = List.map fst w.scripts

let genomes (w : work) : (int * Byz_script.strategy) list =
  List.map
    (fun (pid, genome) ->
      ( pid,
        Byz_script.Genome
          { genome = Array.of_list genome; value = w.script_value } ))
    w.scripts

let describe (w : work) : string =
  Printf.sprintf "seed=%d proto=%s n=%d f=%d%s byz=[%s] claim=%s writes=%d progs=[%s]"
    w.seed (proto_name w.proto) w.n w.f
    (match w.proto with
    | Testorset -> if w.tos_verifiable then "/verifiable" else "/sticky"
    | Sticky | Verifiable -> "")
    (String.concat ";"
       (List.map
          (fun (pid, g) ->
            Printf.sprintf "%d:%s" pid
              (String.concat "," (List.map string_of_int g)))
          w.scripts))
    w.script_value w.writes
    (String.concat ";"
       (List.map
          (fun (pid, prog) ->
            Printf.sprintf "%d:%s" pid
              (String.concat ""
                 (List.map
                    (function
                      | I_read -> "r"
                      | I_test -> "t"
                      | I_verify v -> "v(" ^ v ^ ")")
                    prog)))
          w.programs))

(* ---------------- Spec-level acceptance (the one judge) ---------------- *)

(* Histories with more completed operations than this are judged by the
   monitors only: the exhaustive linearizability search is exponential. *)
let byzlin_op_cap = 14

(* The exhaustive search, unless the history is over the cap or the
   search gives up: [Ok true] when it ran and accepted, [Ok false] when
   it did not run. *)
let linearizable ~what h search : (bool, string) result =
  if List.length (History.complete_entries h) > byzlin_op_cap then Ok false
  else
    match search () with
    | true -> Ok true
    | false -> Error ("history not Byzantine linearizable (" ^ what ^ ")")
    | exception Spec.Search_too_large -> Ok false

let check_sticky_history ~(correct : int -> bool)
    (h : (Spec.Sticky_spec.op, Spec.Sticky_spec.res) History.t) :
    (bool, string) result =
  match
    Monitors.check_all
      (Monitors.uniqueness ~correct h
      @ Monitors.sticky_validity ~correct ~writer:0 h)
  with
  | Error m -> Error m
  | Ok () ->
      linearizable ~what:"sticky" h (fun () ->
          Byzlin.sticky ~writer:0 ~correct h)

let check_verifiable_history ~(correct : int -> bool)
    (h : (Spec.Verifiable_spec.op, Spec.Verifiable_spec.res) History.t) :
    (bool, string) result =
  match
    Monitors.check_all
      (Monitors.relay ~correct h
      @ Monitors.validity ~correct h
      @ Monitors.unforgeability ~correct ~writer:0 h)
  with
  | Error m -> Error m
  | Ok () ->
      linearizable ~what:"verifiable" h (fun () ->
          Byzlin.verifiable ~writer:0 ~correct h)

(* Test-or-set has no observational monitor; its stickiness (a correct
   TEST=1 is never followed by a correct TEST=0, Definition 20) is
   checked here, so it still guards histories over the cap. *)
let check_testorset_history ~(correct : int -> bool)
    (h : (Spec.Testorset_spec.op, Spec.Testorset_spec.res) History.t) :
    (bool, string) result =
  let module T = Spec.Testorset_spec in
  let entries = History.complete_entries (History.restrict h ~correct) in
  let bit (e : (T.op, T.res) History.entry) =
    match (e.op, e.ret) with T.Test, Some (T.Bit b, _) -> Some b | _ -> None
  in
  let monotone =
    List.for_all
      (fun a ->
        match bit a with
        | Some 1 ->
            List.for_all
              (fun b ->
                match bit b with
                | Some 0 -> not (History.precedes a b)
                | _ -> true)
              entries
        | _ -> true)
      entries
  in
  if not monotone then
    Error "test-or-set stickiness violated: TEST=1 then a later TEST=0"
  else
    linearizable ~what:"test-or-set" h (fun () ->
        Byzlin.testorset ~setter:0 ~correct h)

(* ---------------- Canonical history rendering ---------------- *)

(* One stable token per operation instance, ordered by invocation time.
   The sim driver's rendering for a fixed seed is byte-identical across
   refactors of the protocol internals — that is the golden gate. *)

let render_entry ~op ~res (e : ('o, 'r) History.entry) : string =
  match e.ret with
  | Some (r, t) -> Printf.sprintf "p%d:%s[%d,%d]=%s" e.pid (op e.op) e.inv t (res r)
  | None -> Printf.sprintf "p%d:%s[%d,?)" e.pid (op e.op) e.inv

let render_sticky h : string =
  let module S = Spec.Sticky_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function S.Write v -> "W(" ^ v ^ ")" | S.Read -> "R")
          ~res:(function
            | S.Done -> "done"
            | S.Val None -> "bot"
            | S.Val (Some v) -> v))
       (History.entries h))

let render_verifiable h : string =
  let module V = Spec.Verifiable_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function
            | V.Write v -> "W(" ^ v ^ ")"
            | V.Read -> "R"
            | V.Sign v -> "S(" ^ v ^ ")"
            | V.Verify v -> "V(" ^ v ^ ")")
          ~res:(function
            | V.Done -> "done"
            | V.Val v -> v
            | V.Signed b -> "signed:" ^ string_of_bool b
            | V.Verified b -> string_of_bool b))
       (History.entries h))

let render_testorset h : string =
  let module T = Spec.Testorset_spec in
  String.concat " "
    (List.map
       (render_entry
          ~op:(function T.Set -> "SET" | T.Test -> "TEST")
          ~res:(function T.Done -> "done" | T.Bit b -> string_of_int b))
       (History.entries h))

(* ---------------- The workload plan ---------------- *)

(* What a client passes from one of its jobs to the next: a reader's
   round counter (the C_k it writes next) and the writer's written-set.
   A value, so the sim driver can carry it in a machine fiber's state. *)
type carry = { ck : int; written : Value.Set.t }

let carry0 = { ck = 0; written = Value.Set.empty }

(* One client operation. [prog] is built when the job starts, from what
   the client's earlier jobs left; [result] gives what the next job gets
   and the history result; [text] renders the result for the span, only
   when a sink is installed. *)
type ('reg, 'op, 'res) job =
  | Job : {
      op : 'op;
      span : string * string option;
      prog : carry -> ('reg, 'a) Machine.prog;
      result : carry -> 'a -> carry * 'res;
      text : 'a -> string;
    }
      -> ('reg, 'op, 'res) job

type ('reg, 'op, 'res) plan = {
  layout : 'c. 'c Machine.allocator -> 'reg -> 'c;
  correct : bool array;
  helps : (int * ('reg, unit) Machine.prog) list;
  scripts : (int * Byz_script.strategy * ('reg, unit) Machine.prog) list;
  clients : (int * ('reg, 'op, 'res) job list) list;
  fiber_names : string * (int -> string);
  judge :
    correct:(int -> bool) -> ('op, 'res) History.t -> (bool, string) result;
  render : ('op, 'res) History.t -> string;
}

type any_plan = Plan : ('reg, 'op, 'res) plan -> any_plan

(* The value broken cores claim; never written by any workload, so the
   validity monitors reject it on sight. *)
let broken_value : Value.t = "zzz"

let job op span prog result text = Job { op; span; prog; result; text }
let round (c : carry) ck' res = ({ c with ck = ck' }, res)

(* The jobs. [broken] swaps in a core whose final decision step is
   corrupted (pure and termination-preserving): a reader claiming a
   never-written value, a verifier that always accepts, a tester
   returning the impossible bit 2. Only [plan] builds broken jobs. *)

let write_sticky q v =
  let n = Quorum.n q in
  job (Sspec.Write v) ("WRITE", Some v)
    (fun _ -> S_core.write_prog ~n ~q v)
    (fun c () -> (c, Sspec.Done))
    (fun _ -> "done")

let read_sticky_job ~broken q ~pid =
  let n = Quorum.n q in
  job Sspec.Read ("READ", None)
    (fun c ->
      let prog = S_core.read_prog ~n ~q ~pid ~ck:c.ck in
      if broken then
        let* _, ck' = prog in
        ret (Some broken_value, ck')
      else prog)
    (fun c (res, ck') -> round c ck' (Sspec.Val res))
    (function None, _ -> "⊥" | Some v, _ -> "v:" ^ v)

let read_sticky q ~pid = read_sticky_job ~broken:false q ~pid

let write_verifiable v =
  job (Vspec.Write v) ("WRITE", Some v)
    (fun _ -> V_core.write_prog v)
    (fun c () -> ({ c with written = Value.Set.add v c.written }, Vspec.Done))
    (fun _ -> "done")

let sign v =
  job (Vspec.Sign v) ("SIGN", Some v)
    (fun c -> V_core.sign_prog ~written:c.written v)
    (fun c ok -> (c, Vspec.Signed ok))
    string_of_bool

let read_verifiable_job ~broken =
  job Vspec.Read ("READ", None)
    (fun _ ->
      if broken then
        let* _ = V_core.read_prog in
        ret broken_value
      else V_core.read_prog)
    (fun c v -> (c, Vspec.Val v))
    (fun v -> "v:" ^ v)

let read_verifiable = read_verifiable_job ~broken:false

let verify_job ~broken q ~pid v =
  let n = Quorum.n q in
  job (Vspec.Verify v) ("VERIFY", Some v)
    (fun c ->
      let prog = V_core.verify_prog ~n ~q ~pid ~ck:c.ck v in
      if broken then
        let* _, ck' = prog in
        ret (true, ck')
      else prog)
    (fun c (ok, ck') -> round c ck' (Vspec.Verified ok))
    (fun (ok, _) -> string_of_bool ok)

let verify q ~pid v = verify_job ~broken:false q ~pid v

let set_sticky q =
  let n = Quorum.n q in
  job Tspec.Set ("SET", None)
    (fun _ -> T_core.set_sticky_prog ~n ~q)
    (fun c () -> (c, Tspec.Done))
    (fun _ -> "done")

let set_verifiable =
  job Tspec.Set ("SET", None)
    (fun c -> T_core.set_verifiable_prog ~written:c.written)
    (fun c (signed, written') ->
      if not signed then failwith "SET: sign failed for correct setter";
      ({ c with written = written' }, Tspec.Done))
    (fun _ -> "done")

(* TEST over either register; bit 2 is outside the spec's alphabet, so
   no linearization can ever produce it. *)
let test_job ~broken test_prog q ~pid =
  let n = Quorum.n q in
  job Tspec.Test ("TEST", None)
    (fun c ->
      let prog = test_prog ~n ~q ~pid ~ck:c.ck in
      if broken then
        let* _, ck' = prog in
        ret (2, ck')
      else prog)
    (fun c (bit, ck') -> round c ck' (Tspec.Bit bit))
    (fun (bit, _) -> string_of_int bit)

let test_sticky q ~pid = test_job ~broken:false T_core.test_sticky_prog q ~pid

let test_verifiable q ~pid =
  test_job ~broken:false T_core.test_verifiable_prog q ~pid

(* The sim's fiber names, formatted once: a reader's is its prefix and
   pid. *)
let reader_name = Machine.names (Printf.sprintf "r%d")
let tester_name = Machine.names (Printf.sprintf "t%d")

let correct_of ~n byzantine =
  let correct = Array.make n true in
  List.iter (fun pid -> correct.(pid) <- false) byzantine;
  correct

(* The register's half of a plan: its layout, a Help program per correct
   pid and each scripted pid's responder. *)
let helps correct help_prog =
  List.filter_map
    (fun pid -> if correct.(pid) then Some (pid, help_prog ~pid) else None)
    (List.init (Array.length correct) Fun.id)

let on_sticky q ~correct ~scripts ~names ~judge ~render clients =
  let n = Quorum.n q in
  {
    layout = (fun alloc -> S_core.layout ~n alloc);
    correct;
    helps = helps correct (S_core.help_prog ~n ~q);
    scripts =
      List.map
        (fun (pid, s) -> (pid, s, Lnd_byz.Byz_sticky.prog ~n ~pid s))
        scripts;
    clients;
    fiber_names = names;
    judge;
    render;
  }

let on_verifiable q ~correct ~scripts ~names ~judge ~render clients =
  let n = Quorum.n q in
  {
    layout = (fun alloc -> V_core.layout ~n alloc);
    correct;
    helps = helps correct (V_core.help_prog ~n ~q);
    scripts =
      List.map
        (fun (pid, s) -> (pid, s, Lnd_byz.Byz_verifiable.prog ~n ~pid s))
        scripts;
    clients;
    fiber_names = names;
    judge;
    render;
  }

let rw_names = ("writer", reader_name)
let st_names = ("setter", tester_name)

let sticky_plan q ~byzantine ~scripts =
  on_sticky q
    ~correct:(correct_of ~n:(Quorum.n q) byzantine)
    ~scripts ~names:rw_names ~judge:check_sticky_history
    ~render:render_sticky []

let verifiable_plan q ~byzantine ~scripts =
  on_verifiable q
    ~correct:(correct_of ~n:(Quorum.n q) byzantine)
    ~scripts ~names:rw_names ~judge:check_verifiable_history
    ~render:render_verifiable []

let testorset_sticky_plan q ~byzantine ~scripts =
  on_sticky q
    ~correct:(correct_of ~n:(Quorum.n q) byzantine)
    ~scripts ~names:st_names ~judge:check_testorset_history
    ~render:render_testorset []

let testorset_verifiable_plan q ~byzantine ~scripts =
  on_verifiable q
    ~correct:(correct_of ~n:(Quorum.n q) byzantine)
    ~scripts ~names:st_names ~judge:check_testorset_history
    ~render:render_testorset []

(* The work's clients on the protocol's plan: the writer (if correct),
   then each correct reader in [programs] order. *)
let plan (w : work) ~(scripts : (int * Byz_script.strategy) list)
    ~(byzantine : int list) ~(broken : bool) : any_plan =
  let q = Quorum.make_relaxed ~n:w.n ~f:w.f in
  let correct = correct_of ~n:w.n byzantine in
  let clients writes read =
    (if correct.(0) then [ (0, List.concat (List.init w.writes writes)) ]
     else [])
    @ List.filter_map
        (fun (pid, items) ->
          if correct.(pid) then Some (pid, List.map (read pid) items)
          else None)
        w.programs
  in
  let value i = value_pool.(i mod Array.length value_pool) in
  match w.proto with
  | Sticky ->
      Plan
        (on_sticky q ~correct ~scripts ~names:rw_names
           ~judge:check_sticky_history ~render:render_sticky
           (clients
              (fun i -> [ write_sticky q (value i) ])
              (fun pid -> function
                | I_read -> read_sticky_job ~broken q ~pid
                | I_verify _ | I_test -> invalid_arg "Diff: sticky program")))
  | Verifiable ->
      Plan
        (on_verifiable q ~correct ~scripts ~names:rw_names
           ~judge:check_verifiable_history ~render:render_verifiable
           (clients
              (fun i ->
                let v = value i in
                [ write_verifiable v; sign v ])
              (fun pid -> function
                | I_read -> read_verifiable_job ~broken
                | I_verify v -> verify_job ~broken q ~pid v
                | I_test -> invalid_arg "Diff: verifiable program")))
  | Testorset ->
      let test test_prog pid = function
        | I_test -> test_job ~broken test_prog q ~pid
        | I_read | I_verify _ -> invalid_arg "Diff: testorset program"
      in
      if w.tos_verifiable then
        Plan
          (on_verifiable q ~correct ~scripts ~names:st_names
             ~judge:check_testorset_history ~render:render_testorset
             (clients
                (fun _ -> [ set_verifiable ])
                (test T_core.test_verifiable_prog)))
      else
        Plan
          (on_sticky q ~correct ~scripts ~names:st_names
             ~judge:check_testorset_history ~render:render_testorset
             (clients
                (fun _ -> [ set_sticky q ])
                (test T_core.test_sticky_prog)))

(* ---------------- Driver #1: the deterministic simulator ---------------- *)

type run = {
  ops : int; (* completed operations in the history *)
  steps : int; (* scheduler steps (sim) or machine turns (domains) *)
  verdict : (unit, string) result;
}

(* What a client fiber carries: its finished history entries, newest
   first, the job in flight — its operation and invocation time — and
   the carry its next job starts from. *)
type ('op, 'res) client = {
  entries : ('op, 'res) History.entry list;
  pending : ('op * int) option;
  carry : carry;
}

type ('reg, 'op, 'res) session = {
  space : Space.t;
  sched : Sched.t;
  regs : 'reg -> Register.t;
  correct : bool array;
  daemon : pid:int -> name:string -> ('reg, unit) Machine.prog -> unit;
  client : pid:int -> name:string -> ('reg, 'op, 'res) job list -> unit;
  history : unit -> ('op, 'res) History.t;
}

let help_name = Machine.names (Printf.sprintf "help%d")

(* The spawn order — help daemons, script daemons, the plan's clients,
   then each client spawned later — fixes the fiber ids, which the DPOR
   counts and the .scn fid trails depend on. Every fiber is a machine
   fiber, so a session with no Obs sink can journal its steps and rewind
   once switched on (Sched.journal). A client's jobs stamp their
   invocation and response, and open and close their span, where
   History.record did around an operation: moving one would shift every
   span stamp by one tick. A pid's client starts from the carry that
   pid's previous client carries when it is spawned, so a reader's round
   counter stays monotone and the writer can SIGN what an earlier client
   wrote. *)
let session (policy : Policy.t) (p : ('reg, 'op, 'res) plan) :
    ('reg, 'op, 'res) session =
  let n = Array.length p.correct in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:policy in
  let at = p.layout (Space.alloc space) in
  (* Byzantine programs emit no notes, so every daemon gets the HELP
     span handler. *)
  let daemon ~pid ~name prog =
    ignore
      (Sched.spawn_machine sched ~pid ~name ~daemon:true
         ~note:(Drive.help_note ()) ~at ~data:()
         (fun () -> Sched.Job (prog, (fun () -> Sched.Done ()), ()))
        : unit -> unit)
  in
  List.iter
    (fun (pid, prog) -> daemon ~pid ~name:(help_name pid) prog)
    p.helps;
  List.iter
    (fun (pid, s, prog) -> daemon ~pid ~name:(Byz_script.name ~pid s) prog)
    p.scripts;
  (* Every client's data, in spawn order, and each pid's newest. *)
  let clients = ref [] and last = Array.make n None in
  let client ~pid ~name jobs =
    let rec from jobs c entries =
      match jobs with
      | [] -> Sched.Done { entries; pending = None; carry = c }
      | Job j :: rest ->
          let name, arg = j.span in
          let inv = Sched.stamp sched in
          let sp = if Obs.enabled () then Obs.span_open ~name ?arg () else 0 in
          let prog = j.prog c in
          Sched.Job
            ( prog,
              (fun a ->
                let c', res = j.result c a in
                if Obs.enabled () then
                  Obs.span_close ~result:(j.text a) ~name sp;
                let ret = Sched.stamp sched in
                from rest c'
                  ({ History.pid; op = j.op; inv; ret = Some (res, ret) }
                  :: entries)),
              { entries; pending = Some (j.op, inv); carry = c } )
    in
    let c0 =
      match last.(pid) with None -> carry0 | Some data -> (data ()).carry
    in
    let data =
      Sched.spawn_machine sched ~pid ~name ~at
        ~data:{ entries = []; pending = None; carry = c0 }
        (fun () -> from jobs c0 [])
    in
    clients := !clients @ [ (pid, data) ];
    last.(pid) <- Some data
  in
  let writer, reader = p.fiber_names in
  List.iter
    (fun (pid, jobs) ->
      client ~pid ~name:(if pid = 0 then writer else reader pid) jobs)
    p.clients;
  let history () =
    {
      History.entries =
        List.concat_map
          (fun (pid, data) ->
            let d = data () in
            match d.pending with
            | None -> d.entries
            | Some (op, inv) ->
                { History.pid; op; inv; ret = None } :: d.entries)
          !clients;
    }
  in
  { space; sched; regs = at; correct = p.correct; daemon; client; history }

type system = {
  space : Space.t;
  sched : Sched.t;
  correct : bool array;
  verdict : unit -> (bool, string) result;
  ops : unit -> int;
  rendered : unit -> string;
}

let sim_verdict sched ~correct judge h : (bool, string) result =
  match
    List.find_opt
      (fun ((fb : Sched.fiber), _) -> correct fb.Sched.pid)
      (Sched.failures sched)
  with
  | Some (fb, e) ->
      Error
        (Printf.sprintf "correct fiber %s failed: %s" fb.Sched.fname
           (Printexc.to_string e))
  | None -> judge ~correct h

let system (policy : Policy.t) (Plan p : any_plan) : system =
  let s = session policy p in
  {
    space = s.space;
    sched = s.sched;
    correct = p.correct;
    verdict =
      (fun () ->
        sim_verdict s.sched
          ~correct:(fun pid -> p.correct.(pid))
          p.judge (s.history ()));
    ops = (fun () -> List.length (History.complete_entries (s.history ())));
    rendered = (fun () -> p.render (s.history ()));
  }

let sim_max_steps = 8_000_000
let policy_of (w : work) = Policy.random ~seed:((w.seed * 31) + 17)

let quiesce (s : system) : (bool, string) result =
  match Sched.run ~max_steps:sim_max_steps s.sched with
  | Sched.Budget_exhausted -> Error "step budget exhausted"
  | Sched.Condition_met -> Error "unexpected stop"
  | Sched.Quiescent -> s.verdict ()

(* The work's plan on [system], run to quiescence; the system too, for
   [sim_line] to render its history. *)
let sim_system (w : work) : run * system =
  let s =
    system (policy_of w)
      (plan w ~scripts:(genomes w) ~byzantine:(byzantine_pids w)
         ~broken:false)
  in
  let verdict = Result.map ignore (quiesce s) in
  ({ ops = s.ops (); steps = Sched.steps s.sched; verdict }, s)

let sim (w : work) : run = fst (sim_system w)

(* ---------------- Golden baselines (sim driver) ---------------- *)

(* One line per (seed, protocol): workload description, verdict, and the
   canonical history. Generated once from the pre-refactor effects-based
   implementations and committed; the suite re-renders and compares
   byte-for-byte, so any drift in the sim driver's schedules, timestamps
   or results fails loudly. *)

let sim_line (w : work) : string =
  let r, s = sim_system w in
  Printf.sprintf "%s | %s ops=%d steps=%d | %s" (describe w)
    (match r.verdict with Ok () -> "ok" | Error m -> "FAIL(" ^ m ^ ")")
    r.ops r.steps (s.rendered ())

let golden_lines ~from ~count : string list =
  List.concat_map
    (fun i ->
      let seed = from + i in
      List.map (fun proto -> sim_line (generate ~proto seed)) all_protos)
    (List.init count (fun i -> i))

let golden_seed_from = 1
let golden_seed_count = 60

let write_golden path =
  let oc = open_out path in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    (golden_lines ~from:golden_seed_from ~count:golden_seed_count);
  close_out oc

(* Re-render the golden workloads with the current sim driver and diff
   against the committed fixture. Returns the mismatching line pairs
   (expected, got). *)
let check_golden path : (int * string * string) list =
  let ic = open_in path in
  let expected = ref [] in
  (try
     while true do
       expected := input_line ic :: !expected
     done
   with End_of_file -> close_in ic);
  let expected = List.rev !expected in
  let got = golden_lines ~from:golden_seed_from ~count:golden_seed_count in
  let rec pair i es gs acc =
    match (es, gs) with
    | [], [] -> List.rev acc
    | e :: es, g :: gs ->
        pair (i + 1) es gs (if String.equal e g then acc else (i, e, g) :: acc)
    | e :: es, [] -> pair (i + 1) es [] ((i, e, "<missing>") :: acc)
    | [], g :: gs -> pair (i + 1) [] gs ((i, "<missing>", g) :: acc)
  in
  pair 1 expected got []

(* ---------------- Trace parity (both drivers) ---------------- *)

(* Keep only operation spans: they are all the parity fold reads. The
   domains backend records nothing else yet (recording its register
   accesses is ROADMAP item 5), so the filter also keeps the two
   backends' traces alike. *)
let parity_keep (e : Obs.event) : bool =
  match e.kind with
  | Obs.Span_open _ | Obs.Span_close _ -> true
  | _ -> false

type trace_info = {
  t_ops : int;
  t_verdict : (unit, string) result;
  t_nesting : string option;
  t_dropped : int;
  t_events : int;
  t_trace : Trace.t;
}

let fold_trace (w : work) (tr : Trace.t) : trace_info =
  let byz = byzantine_pids w in
  let correct pid = not (List.mem pid byz) in
  let evs = Trace.events tr in
  let t_ops, t_verdict =
    match w.proto with
    | Sticky ->
        let h = Trace_replay.sticky_history evs in
        ( List.length (History.complete_entries h),
          Result.map ignore (check_sticky_history ~correct h) )
    | Verifiable ->
        let h = Trace_replay.verifiable_history evs in
        ( List.length (History.complete_entries h),
          Result.map ignore (check_verifiable_history ~correct h) )
    | Testorset ->
        let h = Trace_replay.testorset_history evs in
        ( List.length (History.complete_entries h),
          Result.map ignore (check_testorset_history ~correct h) )
  in
  {
    t_ops;
    t_verdict;
    t_nesting = Trace.check tr;
    t_dropped = Trace.dropped tr;
    t_events = Trace.size tr;
    t_trace = tr;
  }

let sim_traced ?(keep = parity_keep) (w : work) : run * trace_info =
  let tr = Trace.create ~keep () in
  Obs.install (Trace.sink tr);
  let r = Fun.protect ~finally:Obs.uninstall (fun () -> sim w) in
  Trace.finish tr;
  (r, fold_trace w tr)
