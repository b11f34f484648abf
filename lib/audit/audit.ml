(* Online forensic accountability auditor over the Obs event stream.

   The auditor is a passive [Obs.sink]: it watches the same events a
   recording trace sees and maintains a per-process evidence ledger.
   Whenever a process's *claims* (receiver-side [Obs.Claim] records of
   what the process said on the wire) or its register writes contradict
   what a correct process could have done, the auditor files an
   accusation against that process — with the event indices that prove
   it.

   The design constraint is the paper's: "you can lie but not deny".
   A Byzantine process may answer inconsistently, forge, retract or
   garble — but every utterance is attributed to its author (sender
   authenticity is part of the model), so lies leave evidence. The
   auditor must therefore satisfy two asymmetric obligations:

     - ZERO FALSE BLAME. Every accusation rule is sound: it only fires
       on behaviour no correct process can exhibit, under any schedule,
       any message drops/duplications/delays/partitions and any
       crash-restart of the *accused or anyone else*. Slowness is never
       evidence ([Obs.Watchdog_stall] events are counted, never
       charged); neither is consistent lying (a false witness that
       sticks to its story is unimpeachable by construction — that is
       the paper's point).

     - EVIDENCE-BACKED RECALL. When a lie is detectable at all, the
       ledger catches it: equivocation, forgery (claims with no
       justification anywhere in the causal past), retraction of sticky
       or witness state, stale or ill-typed register writes, replayed
       link epochs, verified-but-never-signed values.

   Justification logic: every claim a correct process makes is caused
   by protocol events it witnessed FIRST — and each of those events was
   itself claimed (receiver-side, before acting) or announced
   (writer-side, before broadcasting). Claims are emitted at decode
   time, strictly before the triggered send leaves, and any observer's
   receipt of that send is strictly later on the event stream; so when
   the auditor checks a claim ONLINE, at its own index, the entire
   justifying causal past is already in the ledger. The thresholds are
   deliberately weaker than any correct trigger condition (f+1 vouchers
   where protocols wait for 2f+1), so drops and crash-recovery replays
   can only make a correct process's claims MORE justified, never
   less. *)

open Lnd_support
module Obs = Lnd_obs.Obs

module PidSet = Set.Make (Int)

type evidence = { ev_index : int; ev_at : int; ev_pid : int; ev_note : string }

type accusation = {
  acc_pid : int;
  acc_rule : string;
  acc_detail : string;
  acc_evidence : evidence list;
}

type report = {
  rp_accusations : accusation list;
  rp_events : int;
  rp_claims : int;
  rp_stalls : int;
}

type t = {
  keep : Obs.event -> bool;
  q : Quorum.t;
  mutable seen : int;
  mutable claims : int;
  mutable stalls : int;
  (* (pid, rule) -> accusation; first evidence wins, later duplicates
     are dropped so a chatty liar cannot flood the report *)
  accs : (int * string, accusation) Hashtbl.t;
  (* ---- message-passing ledgers (receiver-side claims) ---- *)
  (* (sender, seq) -> fingerprint -> first evidence; only claims whose
     src IS the sender count (an init relayed by a third party is a
     forgery, not a justification) *)
  inits : (int * int, (string, evidence) Hashtbl.t) Hashtbl.t;
  (* (sender, seq, tag, fingerprint) -> voucher src -> first evidence *)
  vouches : (int * int * string * string, (int, evidence) Hashtbl.t) Hashtbl.t;
  (* reg -> (owner, init fingerprint) *)
  allocs : (int, int * string) Hashtbl.t;
  (* (reg, ts, fingerprint) declared by the owner before its Wreq *)
  anns : (int * int * string, evidence) Hashtbl.t;
  (* (reg, ts) -> fingerprint -> first evidence (owner claims only) *)
  wreqs : (int * int, (string, evidence) Hashtbl.t) Hashtbl.t;
  (* (reg, ts) -> fingerprint -> echoing src set *)
  wechoes : (int * int, (string, (int, evidence) Hashtbl.t) Hashtbl.t) Hashtbl.t;
  (* (reg, ts, fingerprint) -> state-claiming src set *)
  states : (int * int * string, (int, evidence) Hashtbl.t) Hashtbl.t;
  (* pid -> highest rlink incarnation epoch seen *)
  epochs : (int, int * evidence) Hashtbl.t;
  (* ---- shared-memory ledgers (keyed by register name) ---- *)
  ctr_last : (string, int) Hashtbl.t;
  vset_last : (string, Value.Set.t) Hashtbl.t;
  vopt_lock : (string, Value.t) Hashtbl.t;
  row_vset : (string, Value.Set.t) Hashtbl.t;
  row_vopt : (string, Value.t) Hashtbl.t;
  row_stamp : (string, int) Hashtbl.t;
  (* ---- span ledgers (signature properties) ---- *)
  open_spans : (int, string * string option * int) Hashtbl.t;
  signs : (int * string, evidence) Hashtbl.t;
  verifies : (int * string, evidence) Hashtbl.t;
}

let create ?(keep = fun (_ : Obs.event) -> true) ~q () : t =
  {
    keep;
    q;
    seen = 0;
    claims = 0;
    stalls = 0;
    accs = Hashtbl.create 16;
    inits = Hashtbl.create 64;
    vouches = Hashtbl.create 256;
    allocs = Hashtbl.create 16;
    anns = Hashtbl.create 64;
    wreqs = Hashtbl.create 64;
    wechoes = Hashtbl.create 64;
    states = Hashtbl.create 64;
    epochs = Hashtbl.create 16;
    ctr_last = Hashtbl.create 16;
    vset_last = Hashtbl.create 16;
    vopt_lock = Hashtbl.create 16;
    row_vset = Hashtbl.create 64;
    row_vopt = Hashtbl.create 64;
    row_stamp = Hashtbl.create 64;
    open_spans = Hashtbl.create 32;
    signs = Hashtbl.create 16;
    verifies = Hashtbl.create 16;
  }

let accuse t ~pid ~rule ~detail evidence =
  if not (Hashtbl.mem t.accs (pid, rule)) then
    Hashtbl.replace t.accs (pid, rule)
      { acc_pid = pid; acc_rule = rule; acc_detail = detail;
        acc_evidence = evidence }

let sub_table tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace tbl key s;
      s

let distinct_srcs srcs = Hashtbl.length srcs

(* Distinct vouchers for (sender, seq, tag, fp). *)
let vouch_count t key =
  match Hashtbl.find_opt t.vouches key with
  | Some srcs -> distinct_srcs srcs
  | None -> 0

let init_claimed t ~sender ~seq ~fp =
  match Hashtbl.find_opt t.inits (sender, seq) with
  | Some fps -> Hashtbl.mem fps fp
  | None -> false

let echo_srcs_of t ~reg ~ts ~fp =
  match Hashtbl.find_opt t.wechoes (reg, ts) with
  | Some by_fp -> Hashtbl.find_opt by_fp fp
  | None -> None

let wecho_count t ~reg ~ts ~fp =
  match echo_srcs_of t ~reg ~ts ~fp with
  | Some srcs -> distinct_srcs srcs
  | None -> 0

(* Distinct processes that either echoed or state-transferred
   (reg, ts, fp): the vouching universe for read replies. *)
let reply_support t ~reg ~ts ~fp =
  let add srcs set =
    Tables.fold_sorted (fun src _ acc -> PidSet.add src acc) srcs set
  in
  let set =
    match echo_srcs_of t ~reg ~ts ~fp with
    | Some srcs -> add srcs PidSet.empty
    | None -> PidSet.empty
  in
  let set =
    match Hashtbl.find_opt t.states (reg, ts, fp) with
    | Some srcs -> add srcs set
    | None -> set
  in
  PidSet.cardinal set

let announced t ~reg ~ts ~fp = Hashtbl.mem t.anns (reg, ts, fp)

let wreq_from_owner t ~reg ~ts ~fp =
  match Hashtbl.find_opt t.wreqs (reg, ts) with
  | Some fps -> Hashtbl.mem fps fp
  | None -> false

(* A read reply / state-transfer triple (reg, ts, fp) a correct replica
   could hold: the register's initial value, or a value vouched for by
   f+1 distinct processes (at least one correct, which itself only held
   ST-accepted state). *)
let triple_justified t ~reg ~ts ~fp =
  let initial =
    ts = 0
    &&
    match Hashtbl.find_opt t.allocs reg with
    | Some (_, init_fp) -> String.equal fp init_fp
    | None -> true (* allocation predates the sink: cannot falsify *)
  in
  initial || Quorum.has_one_correct t.q (reply_support t ~reg ~ts ~fp)

(* ---------------- Claim detectors ---------------- *)

let on_claim t ev ~src (claim : Obs.claim) ~fp =
  t.claims <- t.claims + 1;
  match claim with
  | Obs.Cl_garbage ->
      accuse t ~pid:src ~rule:"garbage"
        ~detail:"sent a payload no protocol codec accepts" [ ev ]
  | Obs.Cl_init { sender; seq } ->
      if sender <> src then
        accuse t ~pid:src ~rule:"forged-init"
          ~detail:
            (Printf.sprintf "sent init(p%d,#%d) impersonating p%d" sender seq
               sender)
          [ ev ]
      else begin
        let fps = sub_table t.inits (sender, seq) in
        match Hashtbl.find_opt fps fp with
        | Some _ -> ()
        | None ->
            Hashtbl.replace fps fp ev;
            if Hashtbl.length fps >= 2 then
              let conflicting =
                Tables.fold_sorted (fun _ e acc -> e :: acc) fps []
              in
              accuse t ~pid:sender ~rule:"equivocation"
                ~detail:
                  (Printf.sprintf "two different slot-#%d messages" seq)
                (List.rev conflicting)
      end
  | Obs.Cl_vouch { sender; seq; tag } ->
      let justified =
        if String.equal tag "echo" then
          init_claimed t ~sender ~seq ~fp
          || Quorum.has_one_correct t.q
               (vouch_count t (sender, seq, "echo", fp))
        else
          Quorum.has_one_correct t.q (vouch_count t (sender, seq, "echo", fp))
          || Quorum.has_one_correct t.q (vouch_count t (sender, seq, tag, fp))
      in
      if not justified then
        accuse t ~pid:src ~rule:"unjustified-vouch"
          ~detail:
            (Printf.sprintf "%s for (p%d,#%d,%s) with no initiation and no \
                             f+1 support in its causal past"
               tag sender seq fp)
          [ ev ];
      let srcs = sub_table t.vouches (sender, seq, tag, fp) in
      if not (Hashtbl.mem srcs src) then Hashtbl.replace srcs src ev
  | Obs.Cl_wreq { reg; ts } -> (
      match Hashtbl.find_opt t.allocs reg with
      | None -> () (* unknown register: ownership cannot be established *)
      | Some (owner, _) ->
          if src <> owner then
            accuse t ~pid:src ~rule:"forged-wreq"
              ~detail:
                (Printf.sprintf "wrote reg %d owned by p%d" reg owner)
              [ ev ]
          else begin
            let fps = sub_table t.wreqs (reg, ts) in
            (match Hashtbl.find_opt fps fp with
            | Some _ -> ()
            | None ->
                Hashtbl.replace fps fp ev;
                if Hashtbl.length fps >= 2 then
                  let conflicting =
                    Tables.fold_sorted (fun _ e acc -> e :: acc) fps []
                  in
                  accuse t ~pid:owner ~rule:"write-equivocation"
                    ~detail:
                      (Printf.sprintf
                         "two different values for write ts%d of reg %d" ts
                         reg)
                    (List.rev conflicting));
            if not (announced t ~reg ~ts ~fp) then
              accuse t ~pid:owner ~rule:"unannounced-write"
                ~detail:
                  (Printf.sprintf
                     "write ts%d of reg %d was never declared on the \
                      owner's own stream"
                     ts reg)
                [ ev ]
          end)
  | Obs.Cl_wecho { reg; ts } ->
      let justified =
        announced t ~reg ~ts ~fp
        || wreq_from_owner t ~reg ~ts ~fp
        || Quorum.has_one_correct t.q (wecho_count t ~reg ~ts ~fp)
      in
      if not justified then
        accuse t ~pid:src ~rule:"unjustified-wecho"
          ~detail:
            (Printf.sprintf
               "echoed (reg %d, ts%d, %s) the owner never requested" reg ts
               fp)
          [ ev ];
      let by_fp = sub_table t.wechoes (reg, ts) in
      let srcs = sub_table by_fp fp in
      if not (Hashtbl.mem srcs src) then Hashtbl.replace srcs src ev
  | Obs.Cl_wack { reg; ts } ->
      let justified =
        match Hashtbl.find_opt t.wechoes (reg, ts) with
        | None -> false
        | Some by_fp ->
            Tables.fold_sorted
              (fun _ srcs ok ->
                ok || Quorum.has_one_correct t.q (distinct_srcs srcs))
              by_fp false
      in
      if not justified then
        accuse t ~pid:src ~rule:"unjustified-wack"
          ~detail:
            (Printf.sprintf
               "acknowledged write ts%d of reg %d without any f+1-echoed \
                value"
               ts reg)
          [ ev ]
  | Obs.Cl_rrep { reg; rid; ts } ->
      if not (triple_justified t ~reg ~ts ~fp) then
        accuse t ~pid:src ~rule:"unjustified-reply"
          ~detail:
            (Printf.sprintf
               "answered read #%d of reg %d with (ts%d, %s), a value no \
                correct replica could hold"
               rid reg ts fp)
          [ ev ]
  | Obs.Cl_state { reg; ts } ->
      if not (triple_justified t ~reg ~ts ~fp) then
        accuse t ~pid:src ~rule:"unjustified-state"
          ~detail:
            (Printf.sprintf
               "state-transferred (reg %d, ts%d, %s), a value no correct \
                replica could hold"
               reg ts fp)
          [ ev ];
      let srcs = sub_table t.states (reg, ts, fp) in
      if not (Hashtbl.mem srcs src) then Hashtbl.replace srcs src ev

(* ---------------- Shared-memory detectors ---------------- *)

(* The appendix observations over each register write: C_k never falls
   (Obs. 28/94), R_i only grows (Obs. 30), E_i and R_i keep their first
   value (Obs. 92/93), R_{j,k} stamps increase; audit.mli maps each rule
   to its observation. *)

let is_prefixed ~prefix name =
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* "C_3" yes; "R_{3,4}" no; "R*" no. *)
let is_simple ~prefix name =
  is_prefixed ~prefix name && not (String.contains name '{')

let pp_set s = String.concat "," (Value.Set.elements s)

let on_shm_write t ev ~pid ~reg value =
  let ill_typed expected =
    accuse t ~pid ~rule:"ill-typed-write"
      ~detail:(Printf.sprintf "wrote non-%s garbage into %s" expected reg)
      [ ev ]
  in
  if is_simple ~prefix:"C_" reg then begin
    match Univ.prj Codecs.counter value with
    | None -> ill_typed "counter"
    | Some c ->
        let prev =
          Option.value ~default:min_int (Hashtbl.find_opt t.ctr_last reg)
        in
        if c < prev then
          accuse t ~pid ~rule:"counter-regression"
            ~detail:(Printf.sprintf "%s went %d -> %d" reg prev c)
            [ ev ];
        Hashtbl.replace t.ctr_last reg c
  end
  else if is_simple ~prefix:"E_" reg || is_simple ~prefix:"R_" reg then begin
    (* Two worlds share the R_ prefix: Algorithm 2 keeps a sticky
       [Value.t option], Algorithm 1 a growing witness [Value.Set.t].
       The codec of the write tells them apart; a write decoding as
       neither is garbage under every reading. *)
    match Univ.prj Codecs.value_opt value with
    | Some vo -> (
        match (Hashtbl.find_opt t.vopt_lock reg, vo) with
        | None, Some v -> Hashtbl.replace t.vopt_lock reg v
        | None, None -> ()
        | Some v0, Some v when Value.equal v0 v -> ()
        | Some v0, Some v ->
            accuse t ~pid ~rule:"sticky-overwrite"
              ~detail:(Printf.sprintf "%s changed %s -> %s" reg v0 v)
              [ ev ]
        | Some v0, None ->
            accuse t ~pid ~rule:"sticky-overwrite"
              ~detail:(Printf.sprintf "%s retracted %s back to ⊥" reg v0)
              [ ev ])
    | None -> (
        match Univ.prj Codecs.vset value with
        | Some s ->
            let prev =
              Option.value ~default:Value.Set.empty
                (Hashtbl.find_opt t.vset_last reg)
            in
            if not (Value.Set.subset prev s) then
              accuse t ~pid ~rule:"witness-retraction"
                ~detail:
                  (Printf.sprintf "%s dropped {%s} down to {%s}" reg
                     (pp_set prev) (pp_set s))
                [ ev ];
            Hashtbl.replace t.vset_last reg s
        | None ->
            if is_simple ~prefix:"E_" reg then ill_typed "value"
            else ill_typed "value/witness-set")
  end
  else if is_prefixed ~prefix:"R_{" reg then begin
    let stamp =
      match Univ.prj Codecs.vset_stamped value with
      | Some (s, c) -> Some (`Set s, c)
      | None -> (
          match Univ.prj Codecs.vopt_stamped value with
          | Some (vo, c) -> Some (`Opt vo, c)
          | None -> None)
    in
    match stamp with
    | None -> ill_typed "stamped-reply"
    | Some (content, c) ->
        let prev =
          Option.value ~default:min_int (Hashtbl.find_opt t.row_stamp reg)
        in
        if c <= prev then
          accuse t ~pid ~rule:"stale-stamp"
            ~detail:(Printf.sprintf "%s answered round %d after %d" reg c prev)
            [ ev ];
        Hashtbl.replace t.row_stamp reg c;
        (match content with
        | `Set s ->
            let prev_s =
              Option.value ~default:Value.Set.empty
                (Hashtbl.find_opt t.row_vset reg)
            in
            if not (Value.Set.subset prev_s s) then
              accuse t ~pid ~rule:"mailbox-retraction"
                ~detail:
                  (Printf.sprintf "%s dropped {%s} down to {%s}" reg
                     (pp_set prev_s) (pp_set s))
                [ ev ];
            Hashtbl.replace t.row_vset reg s
        | `Opt vo -> (
            match (Hashtbl.find_opt t.row_vopt reg, vo) with
            | None, Some v -> Hashtbl.replace t.row_vopt reg v
            | None, None -> ()
            | Some v0, Some v when Value.equal v0 v -> ()
            | Some v0, Some v ->
                accuse t ~pid ~rule:"mailbox-retraction"
                  ~detail:(Printf.sprintf "%s changed %s -> %s" reg v0 v)
                  [ ev ]
            | Some v0, None ->
                accuse t ~pid ~rule:"mailbox-retraction"
                  ~detail:(Printf.sprintf "%s retracted %s back to ⊥" reg v0)
                  [ ev ]))
  end

(* ---------------- Event dispatch ---------------- *)

let observe t (e : Obs.event) =
  let is_span =
    match e.Obs.kind with
    | Obs.Span_open _ | Obs.Span_close _ -> true
    | _ -> false
  in
  (* Mirror [Trace.create ~keep]: spans are always part of the record,
     so evidence indices line up with the exported JSONL line numbers
     when both are given the same [keep]. *)
  if is_span || t.keep e then begin
    let idx = t.seen in
    t.seen <- idx + 1;
    let ev note =
      { ev_index = idx; ev_at = e.Obs.at; ev_pid = e.Obs.pid; ev_note = note }
    in
    match e.Obs.kind with
    | Obs.Claim { src; claim; fp } ->
        on_claim t (ev "claim") ~src claim ~fp
    | Obs.Reg_write_ann { reg; ts; fp } ->
        Hashtbl.replace t.anns (reg, ts, fp) (ev "write-announcement")
    | Obs.Reg_alloc { reg; owner; fp } ->
        if not (Hashtbl.mem t.allocs reg) then
          Hashtbl.replace t.allocs reg (owner, fp)
    | Obs.Link_incarnation { epoch } when e.Obs.pid >= 0 -> (
        let pid = e.Obs.pid in
        match Hashtbl.find_opt t.epochs pid with
        | None -> Hashtbl.replace t.epochs pid (epoch, ev "first incarnation")
        | Some (prev, prev_ev) ->
            if epoch <= prev then
              accuse t ~pid ~rule:"epoch-replay"
                ~detail:
                  (Printf.sprintf
                     "restarted with incarnation epoch %d, not above %d"
                     epoch prev)
                [ prev_ev; ev "replayed incarnation" ]
            else Hashtbl.replace t.epochs pid (epoch, ev "incarnation"))
    | Obs.Link_incarnation _ -> ()
    | Obs.Watchdog_stall _ ->
        (* Slowness is diagnosed, never charged: a process can be late
           without lying. *)
        t.stalls <- t.stalls + 1
    | Obs.Shm_access { access = `Write; reg; value } when e.Obs.pid >= 0 ->
        on_shm_write t (ev "register write") ~pid:e.Obs.pid ~reg value
    | Obs.Shm_access _ -> ()
    | Obs.Span_open { name; arg; _ } ->
        Hashtbl.replace t.open_spans e.Obs.span (name, arg, e.Obs.pid)
    | Obs.Span_close { name; result; _ } -> (
        let opened = Hashtbl.find_opt t.open_spans e.Obs.span in
        Hashtbl.remove t.open_spans e.Obs.span;
        match (opened, result) with
        | Some (oname, Some arg, opid), Some "true"
          when String.equal oname name ->
            if String.equal name "SIGN" then begin
              if not (Hashtbl.mem t.signs (opid, arg)) then
                Hashtbl.replace t.signs (opid, arg) (ev "successful SIGN")
            end
            else if String.equal name "VERIFY" then
              if not (Hashtbl.mem t.verifies (opid, arg)) then
                Hashtbl.replace t.verifies (opid, arg) (ev "VERIFY returned \
                                                            true")
        | _ -> ())
    | Obs.Sched_spawn _ | Obs.Sched_switch _ | Obs.Sched_exit _
    | Obs.Net_verdict _ | Obs.Link_data _ | Obs.Link_ack _
    | Obs.Link_deliver _ | Obs.Link_dedup _ | Obs.Link_stale _
    | Obs.Link_epoch _ | Obs.Reg_round _ | Obs.Reg_reply _ | Obs.Reg_quorum _
    | Obs.Wal_append _ | Obs.Wal_sync _ | Obs.Wal_snapshot _
    | Obs.Wal_recover _ | Obs.Disk_crash _ | Obs.Explore_run _
    | Obs.Explore_stats _ ->
        ()
  end

let sink t : Obs.sink = { Obs.emit = (fun e -> observe t e) }

(* ---------------- Finalisation ---------------- *)

let finalize ?(writer = 0) t : report =
  (* Signature property, judged once the stream is complete: VERIFY
     returning true for v certifies that the writer signed v; if no
     successful SIGN span for v exists anywhere in the writer's record,
     the writer smuggled v into its witness register without running the
     protocol — only a Byzantine writer can do that. The reader is never
     accused: it faithfully reported what the registers showed. *)
  Tables.iter_sorted
    (fun (_, v) ev ->
      if not (Hashtbl.mem t.signs (writer, v)) then
        accuse t ~pid:writer ~rule:"verify-without-sign"
          ~detail:
            (Printf.sprintf
               "%s was verified but the writer never ran a successful \
                SIGN(%s)"
               v v)
          [ ev ])
    t.verifies;
  {
    rp_accusations =
      List.rev (Tables.fold_sorted (fun _ a acc -> a :: acc) t.accs []);
    rp_events = t.seen;
    rp_claims = t.claims;
    rp_stalls = t.stalls;
  }

let accused (r : report) : int list =
  List.sort_uniq compare (List.map (fun a -> a.acc_pid) r.rp_accusations)

(* ---------------- Rendering ---------------- *)

let esc b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let report_to_json (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"events\":%d,\"claims\":%d,\"stalls\":%d,\"accused\":["
       r.rp_events r.rp_claims r.rp_stalls);
  List.iteri
    (fun i pid ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int pid))
    (accused r);
  Buffer.add_string b "],\"accusations\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"pid\":%d,\"rule\":\"" a.acc_pid);
      esc b a.acc_rule;
      Buffer.add_string b "\",\"detail\":\"";
      esc b a.acc_detail;
      Buffer.add_string b "\",\"evidence\":[";
      List.iteri
        (fun j e ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"index\":%d,\"at\":%d,\"pid\":%d,\"note\":\""
               e.ev_index e.ev_at e.ev_pid);
          esc b e.ev_note;
          Buffer.add_string b "\"}")
        a.acc_evidence;
      Buffer.add_string b "]}")
    r.rp_accusations;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_evidence fmt e =
  Format.fprintf fmt "event #%d (t=%d, p%d: %s)" e.ev_index e.ev_at e.ev_pid
    e.ev_note

let pp_accusation fmt a =
  Format.fprintf fmt "@[<v 2>p%d: %s — %s@,%a@]" a.acc_pid a.acc_rule
    a.acc_detail
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_evidence)
    a.acc_evidence

let pp_report fmt (r : report) =
  Format.fprintf fmt "@[<v>%d events, %d claims, %d stalls@," r.rp_events
    r.rp_claims r.rp_stalls;
  (match r.rp_accusations with
  | [] -> Format.fprintf fmt "no accusations@]"
  | accs ->
      Format.fprintf fmt "accused: %s@,%a@]"
        (String.concat ", "
           (List.map (fun p -> Printf.sprintf "p%d" p) (accused r)))
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_accusation)
        accs)
