(* Forensic accountability (lib/audit): the online blame auditor.

   The contract is asymmetric and both halves are enforced here over
   seeded sweeps and targeted adversaries:

   - zero false blame: accused ⊆ Byzantine pids, always — under link
     chaos, crash-restarts, and consistent liars (naysayers, false
     witnesses, stale replayers) who are unimpeachable by the model;
   - recall: every detectable lie (Chaos.detectable, plus the shm
     adversaries of lnd_byz that retract/garble/overwrite) yields an
     accusation against the lying pid, backed by event indices that
     line up with the exported JSONL trace. *)

module Audit = Lnd_audit.Audit
module Chaos = Lnd_fuzz.Chaos
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Quorum = Lnd_support.Quorum
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Diff = Lnd_parallel.Diff
module Byz_script = Lnd_byz.Byz_script

let pids = Alcotest.(list int)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* ---- chaos sweeps: the acceptance bar of the auditor ---- *)

let sweep ~gen ~from ~count () =
  let adversarial = ref 0 in
  for seed = from to from + count - 1 do
    let s = gen seed in
    let out, tr, rp = Chaos.run_audited ~keep:Chaos.compact_keep s in
    (match out with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "seed %d failed: %s" seed msg);
    let acc = Audit.accused rp in
    let byz = Chaos.byzantine_pids s in
    let det = Chaos.detectable s in
    if det <> [] then incr adversarial;
    if not (subset acc byz) then
      Alcotest.failf "seed %d: FALSE BLAME — accused %s, byzantine %s" seed
        (String.concat "," (List.map string_of_int acc))
        (String.concat "," (List.map string_of_int byz));
    if not (subset det acc) then
      Alcotest.failf "seed %d: MISSED — detectable %s, accused %s" seed
        (String.concat "," (List.map string_of_int det))
        (String.concat "," (List.map string_of_int acc));
    (* evidence indices are line numbers of the JSONL export *)
    let lines =
      List.filter
        (fun l -> l <> "")
        (String.split_on_char '\n' (Trace.to_jsonl tr))
    in
    Alcotest.(check bool)
      "auditor saw no more events than the trace recorded" true
      (rp.Audit.rp_events <= List.length lines);
    List.iter
      (fun (a : Audit.accusation) ->
        List.iter
          (fun (e : Audit.evidence) ->
            if e.Audit.ev_index < 0 || e.Audit.ev_index >= List.length lines
            then
              Alcotest.failf "seed %d: evidence index %d out of trace range"
                seed e.Audit.ev_index;
            let line = List.nth lines e.Audit.ev_index in
            let stamp = Printf.sprintf "\"at\":%d" e.Audit.ev_at in
            let m = String.length stamp and n = String.length line in
            let rec found i =
              i + m <= n && (String.sub line i m = stamp || found (i + 1))
            in
            if not (found 0) then
              Alcotest.failf
                "seed %d: evidence #%d cites t=%d but trace line reads %s"
                seed e.Audit.ev_index e.Audit.ev_at line)
          a.Audit.acc_evidence)
      rp.Audit.rp_accusations;
    Jsonchk.check ~what:"audit report" (Audit.report_to_json rp)
  done;
  (* guard against a degenerate generator silently weakening the sweep *)
  if count >= 30 && !adversarial < 3 then
    Alcotest.failf "only %d adversarial scenarios in %d seeds" !adversarial
      count

(* ---- shm adversaries: Algorithms 1 and 2 under the lnd_byz strategies ---- *)

(* Run [body] with the auditor installed behind the seam (full event
   stream — the shm detectors need the per-write [Shm_access] records
   that [Chaos.compact_keep] drops), then return the finalized report. *)
let with_audit ~n ~f body =
  let au = Audit.create ~q:(Quorum.make_relaxed ~n ~f) () in
  Obs.install (Audit.sink au);
  Fun.protect ~finally:(fun () -> Obs.uninstall ()) body;
  au

let check_verdict ~what ~byz ~expect rp =
  let acc = Audit.accused rp in
  if not (subset acc byz) then
    Alcotest.failf "%s: FALSE BLAME — accused %s" what
      (String.concat "," (List.map string_of_int acc));
  match expect with
  | [] ->
      Alcotest.(check pids) (what ^ ": consistent liar stays unaccused") []
        acc
  | _ ->
      List.iter
        (fun p ->
          if not (List.mem p acc) then
            Alcotest.failf "%s: p%d lied but was not accused (report: %s)"
              what p
              (Format.asprintf "%a" Audit.pp_report rp))
        expect

let run_to_quiescence ~what sched_run =
  match sched_run () with
  | Sched.Quiescent | Sched.Condition_met -> ()
  | Sched.Budget_exhausted -> Alcotest.failf "%s: step budget exhausted" what

(* The adversary's pids are Byzantine and run [strategy]; every other
   process runs its client. *)
let sticky_case ~what ~byzantine ~expect strategy () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  let au =
    with_audit ~n ~f (fun () ->
        let t =
          Diff.session (Policy.random ~seed:7)
            (Diff.sticky_plan q ~byzantine
               ~scripts:(List.map (fun pid -> (pid, strategy)) byzantine))
        in
        if not (List.mem 0 byzantine) then
          t.client ~pid:0 ~name:"w" [ Diff.write_sticky q "w" ];
        (* asymmetric read counts: once the short readers finish, the
           survivor's rounds are the only ones a per-reply liar answers,
           so a flip-flopping story lands in one mailbox row *)
        List.iter
          (fun (pid, reads) ->
            if not (List.mem pid byzantine) then
              t.client ~pid
                ~name:(Printf.sprintf "r%d" pid)
                (List.init reads (fun _ -> Diff.read_sticky q ~pid)))
          [ (1, 4); (2, 1); (3, 1) ];
        run_to_quiescence ~what (fun () ->
            Sched.run ~max_steps:4_000_000 t.sched))
  in
  check_verdict ~what ~byz:byzantine ~expect (Audit.finalize au)

let verifiable_case ~what ~byzantine ~expect ?(value = "v") strategy () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  let au =
    with_audit ~n ~f (fun () ->
        let t =
          Diff.session (Policy.random ~seed:7)
            (Diff.verifiable_plan q ~byzantine
               ~scripts:(List.map (fun pid -> (pid, strategy)) byzantine))
        in
        if not (List.mem 0 byzantine) then
          t.client ~pid:0 ~name:"w" [ Diff.write_verifiable value; Diff.sign value ];
        List.iter
          (fun pid ->
            if not (List.mem pid byzantine) then
              t.client ~pid
                ~name:(Printf.sprintf "v%d" pid)
                [ Diff.verify q ~pid value; Diff.verify q ~pid value ])
          [ 1; 2; 3 ];
        run_to_quiescence ~what (fun () ->
            Sched.run ~max_steps:4_000_000 t.sched))
  in
  check_verdict ~what ~byz:byzantine ~expect (Audit.finalize au)

let sticky_tests =
  [
    ( "sticky: equivocating writer caught",
      sticky_case ~what:"sticky equivocator" ~byzantine:[ 0 ] ~expect:[ 0 ]
        (Byz_script.Equivocating_writer { va = "a"; vb = "b"; flip_after = 2 })
    );
    ( "sticky: denying writer caught",
      sticky_case ~what:"sticky denier" ~byzantine:[ 0 ] ~expect:[ 0 ]
        (Byz_script.Denying_writer { v = "kept"; deny_after = 4 })
    );
    ( "sticky: flip-flopping helper caught",
      sticky_case ~what:"sticky flipflop" ~byzantine:[ 3 ] ~expect:[ 3 ]
        (Byz_script.Flipflop "w") );
    ( "sticky: garbage writer caught",
      sticky_case ~what:"sticky garbage" ~byzantine:[ 3 ] ~expect:[ 3 ]
        Byz_script.Garbage );
    ( "sticky: naysayer is a consistent liar — unaccused",
      sticky_case ~what:"sticky naysayer" ~byzantine:[ 3 ] ~expect:[]
        Byz_script.Naysayer );
    ( "sticky: stale replayer is consistent — unaccused",
      sticky_case ~what:"sticky stale-replayer" ~byzantine:[ 3 ] ~expect:[]
        Byz_script.Stale_replayer );
    ( "sticky: false witness sticks to its story — unaccused",
      sticky_case ~what:"sticky false-witness" ~byzantine:[ 3 ] ~expect:[]
        (Byz_script.False_witness "fake") );
  ]

let verifiable_tests =
  [
    ( "verifiable: equivocating writer caught",
      verifiable_case ~what:"verifiable equivocator" ~byzantine:[ 0 ]
        ~expect:[ 0 ] ~value:"a"
        (Byz_script.Equivocating_writer { va = "a"; vb = "b"; flip_after = 1 })
    );
    ( "verifiable: denying writer caught",
      verifiable_case ~what:"verifiable denier" ~byzantine:[ 0 ] ~expect:[ 0 ]
        ~value:"lie" (Byz_script.Denying_writer { v = "lie"; deny_after = 4 })
    );
    ( "verifiable: flip-flopping colluder caught",
      verifiable_case ~what:"verifiable flipflop" ~byzantine:[ 3 ]
        ~expect:[ 3 ] (Byz_script.Flipflop "v") );
    ( "verifiable: garbage writer caught",
      verifiable_case ~what:"verifiable garbage" ~byzantine:[ 3 ] ~expect:[ 3 ]
        Byz_script.Garbage );
    ( "verifiable: sign-without-write pinned on the writer",
      verifiable_case ~what:"sign-without-write" ~byzantine:[ 0 ]
        ~expect:[ 0 ] ~value:"ghost" (Byz_script.Sign_without_write "ghost") );
    ( "verifiable: naysayer unaccused",
      verifiable_case ~what:"verifiable naysayer" ~byzantine:[ 3 ] ~expect:[]
        Byz_script.Naysayer );
    ( "verifiable: stale replayer unaccused",
      verifiable_case ~what:"verifiable stale-replayer" ~byzantine:[ 3 ]
        ~expect:[] Byz_script.Stale_replayer );
    ( "verifiable: false witness unaccused",
      verifiable_case ~what:"verifiable false-witness" ~byzantine:[ 3 ]
        ~expect:[] (Byz_script.False_witness "evil") );
    ( "verifiable: selective responder unaccused",
      verifiable_case ~what:"verifiable selective" ~byzantine:[ 3 ] ~expect:[]
        (Byz_script.Selective "v") );
  ]

(* ---- signature property: VERIFY without a SIGN, judged end-of-stream ---- *)

let test_verify_without_sign () =
  let au = Audit.create ~q:(Quorum.make_relaxed ~n:4 ~f:1) () in
  Obs.install (Audit.sink au);
  Fun.protect
    ~finally:(fun () -> Obs.uninstall ())
    (fun () ->
      let s = Obs.span_open ~pid:2 ~name:"VERIFY" ~arg:"ghost" () in
      Obs.span_close ~pid:2 ~result:"true" ~name:"VERIFY" s);
  let rp = Audit.finalize ~writer:0 au in
  Alcotest.(check pids) "the writer is accused, not the reader" [ 0 ]
    (Audit.accused rp);
  match rp.Audit.rp_accusations with
  | [ a ] ->
      Alcotest.(check string) "rule" "verify-without-sign" a.Audit.acc_rule
  | l -> Alcotest.failf "expected one accusation, got %d" (List.length l)

let test_verify_with_sign_ok () =
  let au = Audit.create ~q:(Quorum.make_relaxed ~n:4 ~f:1) () in
  Obs.install (Audit.sink au);
  Fun.protect
    ~finally:(fun () -> Obs.uninstall ())
    (fun () ->
      let s = Obs.span_open ~pid:0 ~name:"SIGN" ~arg:"v" () in
      Obs.span_close ~pid:0 ~result:"true" ~name:"SIGN" s;
      let s = Obs.span_open ~pid:2 ~name:"VERIFY" ~arg:"v" () in
      Obs.span_close ~pid:2 ~result:"true" ~name:"VERIFY" s);
  let rp = Audit.finalize ~writer:0 au in
  Alcotest.(check pids) "signed value verifies blamelessly" []
    (Audit.accused rp);
  (* a failed VERIFY certifies nothing either *)
  let au = Audit.create ~q:(Quorum.make_relaxed ~n:4 ~f:1) () in
  Obs.install (Audit.sink au);
  Fun.protect
    ~finally:(fun () -> Obs.uninstall ())
    (fun () ->
      let s = Obs.span_open ~pid:2 ~name:"VERIFY" ~arg:"ghost" () in
      Obs.span_close ~pid:2 ~result:"false" ~name:"VERIFY" s);
  Alcotest.(check pids) "VERIFY=false charges nobody" []
    (Audit.accused (Audit.finalize ~writer:0 au))

(* ---- the legacy-epochs bug is caught as an epoch replay ---- *)

let test_epoch_replay () =
  let s = { (Chaos.generate_crash 4) with Chaos.epoch_bump = false } in
  (* without the incarnation bump the restarted replica re-announces
     under its old epoch: its traffic may be swallowed by stale dedup
     state (the pre-epoch bug), and whether or not the run happens to
     terminate, the auditor pins the replayed epoch on the restarted
     pid *)
  let _out, _tr, rp = Chaos.run_audited ~keep:Chaos.compact_keep s in
  let victims = List.map (fun c -> c.Chaos.victim) s.Chaos.crashes in
  let replayers =
    List.filter_map
      (fun (a : Audit.accusation) ->
        if a.Audit.acc_rule = "epoch-replay" then Some a.Audit.acc_pid
        else None)
      rp.Audit.rp_accusations
  in
  (* the scenario may also carry a genuine Byzantine adversary — its
     accusations ride along; the epoch-replay ones must name exactly
     the restarted (otherwise-correct) victims *)
  let byz = Chaos.byzantine_pids s in
  List.iter
    (fun (a : Audit.accusation) ->
      if
        a.Audit.acc_rule <> "epoch-replay"
        && not (List.mem a.Audit.acc_pid byz)
      then
        Alcotest.failf "non-epoch accusation under legacy epochs:@.%a"
          Audit.pp_report rp)
    rp.Audit.rp_accusations;
  Alcotest.(check bool) "a restarted victim is named" true
    (List.exists (fun p -> List.mem p victims) replayers);
  Alcotest.(check bool) "only victims (or byzantine pids) replay epochs" true
    (subset replayers (victims @ byz))

(* ---- watchdog stalls are diagnosed, never charged ---- *)

let test_stall_never_charged () =
  let au = Audit.create ~q:(Quorum.make_relaxed ~n:4 ~f:1) () in
  Audit.observe au
    {
      Obs.at = 17;
      pid = 2;
      span = 0;
      kind =
        Obs.Watchdog_stall
          { fid = 1; fname = "r2"; op = "read"; deadline = 10 };
    };
  let rp = Audit.finalize au in
  Alcotest.(check int) "stall counted" 1 rp.Audit.rp_stalls;
  Alcotest.(check pids) "stall not charged" [] (Audit.accused rp)

let tests =
  [
    Alcotest.test_case "link chaos seeds 1-60: full recall, zero false blame"
      `Quick
      (sweep ~gen:Chaos.generate ~from:1 ~count:60);
    Alcotest.test_case "crash chaos seeds 1-60: full recall, zero false blame"
      `Quick
      (sweep ~gen:Chaos.generate_crash ~from:1 ~count:60);
    Alcotest.test_case "link chaos seeds 61-120" `Slow
      (sweep ~gen:Chaos.generate ~from:61 ~count:60);
    Alcotest.test_case "crash chaos seeds 61-120" `Slow
      (sweep ~gen:Chaos.generate_crash ~from:61 ~count:60);
    Alcotest.test_case "verify-without-sign accuses the writer" `Quick
      test_verify_without_sign;
    Alcotest.test_case "verify with sign (or failed verify) accuses nobody"
      `Quick test_verify_with_sign_ok;
    Alcotest.test_case "legacy epochs: replay pinned on restarted pid" `Quick
      test_epoch_replay;
    Alcotest.test_case "watchdog stall is never an accusation" `Quick
      test_stall_never_charged;
  ]
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) sticky_tests
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f) verifiable_tests
