(* A certified configuration service — the multivalued face of the
   verifiable register.

   Section 4 of the paper stresses that the writer may sign only a subset
   of the values it writes, and may sign older values. This demo uses
   that: a publisher writes a stream of configuration revisions into one
   verifiable register but only SIGNs the revisions that passed review.
   Subscribers accept a revision only if VERIFY says the publisher signed
   it — so a compromised (Byzantine) publisher can still publish garbage,
   but it cannot forge a certified revision, and once any subscriber has
   accepted a revision, the publisher cannot "unrelease" it (relay).

   Run with: dune exec examples/config_service.exe *)

open Lnd
module V = Spec.Verifiable_spec

(* A run's completed operations, in the order they returned. *)
let responses h =
  List.sort
    (fun a b -> compare (History.response_time a) (History.response_time b))
    (History.complete_entries h)

let () =
  let n = 4 and f = 1 in
  Printf.printf "== certified config service: n=%d, f=%d ==\n" n f;
  let q = Quorum.make_relaxed ~n ~f in
  let s =
    Diff.session (Policy.random ~seed:21)
      (Diff.verifiable_plan q ~byzantine:[] ~scripts:[])
  in
  let run what =
    match Sched.run ~max_steps:4_000_000 s.sched with
    | Sched.Quiescent -> ()
    | _ -> failwith (what ^ " did not quiesce")
  in

  (* The publisher writes three revisions and certifies only two... *)
  s.client ~pid:0 ~name:"publisher"
    [
      Diff.write_verifiable "rev1:timeout=30";
      Diff.sign "rev1:timeout=30";
      Diff.write_verifiable "rev2:timeout=5";
      Diff.write_verifiable "rev3:timeout=60";
      Diff.sign "rev3:timeout=60";
      (* ...and it may certify an older revision later (Section 4) *)
      Diff.sign "rev2:timeout=5";
    ];
  run "publishing";
  List.iter
    (fun (e : (V.op, V.res) History.entry) ->
      match (e.op, e.ret) with
      | V.Sign "rev1:timeout=30", Some (V.Signed ok, _) ->
          Printf.printf "publisher: release rev1 (certified=%b)\n" ok
      | V.Write "rev2:timeout=5", _ ->
          Printf.printf "publisher: draft rev2 (NOT certified)\n"
      | V.Sign "rev3:timeout=60", Some (V.Signed ok, _) ->
          Printf.printf "publisher: release rev3 (certified=%b)\n" ok
      | V.Sign "rev2:timeout=5", Some (V.Signed ok, _) ->
          Printf.printf "publisher: belatedly certify rev2 (certified=%b)\n"
            ok
      | _ -> ())
    (responses (s.history ()));

  (* Subscribers: read the current revision, verify the newest release,
     and verify a revision nobody certified, which never verifies. One
     whose VERIFY failed falls back through the older revisions in a
     client of its own, and accepts the first one certified. *)
  let revisions = [ "rev3:timeout=60"; "rev2:timeout=5"; "rev1:timeout=30" ] in
  let subscribers = List.init (n - 1) (fun i -> i + 1) in
  let accepts h pid =
    List.find_opt
      (fun (e : (V.op, V.res) History.entry) ->
        match (e.op, e.ret) with
        | V.Verify rev, Some (V.Verified ok, _) ->
            e.pid = pid && ok && List.mem rev revisions
        | _ -> false)
      (History.entries h)
  in
  let subscribe jobs =
    List.iter
      (fun pid ->
        if accepts (s.history ()) pid = None then
          s.client ~pid ~name:(Printf.sprintf "subscriber%d" pid) (jobs pid))
      subscribers;
    run "subscribing"
  in
  subscribe (fun pid ->
      Diff.read_verifiable
      :: List.map (Diff.verify q ~pid) [ List.hd revisions; "rev9:evil" ]);
  subscribe (fun pid -> List.map (Diff.verify q ~pid) (List.tl revisions));
  (* Each subscriber reports once it accepted a revision. *)
  let h = s.history () in
  let report pid accepted =
    List.iter
      (fun (e : (V.op, V.res) History.entry) ->
        match e.ret with
        | Some (V.Val current, _) when e.pid = pid ->
            Printf.printf "p%d: current=%S, accepts %s\n" pid current accepted
        | _ -> ())
      (History.entries h)
  in
  List.iter
    (fun (e : (V.op, V.res) History.entry) ->
      match (e.op, e.ret, accepts h e.pid) with
      | V.Verify rev, _, Some a when a == e ->
          report e.pid (Printf.sprintf "%S" rev)
      | V.Verify "rev9:evil", Some (V.Verified forged, _), _ ->
          assert (not forged)
      | _ -> ())
    (responses h);
  List.iter
    (fun pid -> if accepts h pid = None then report pid "(nothing certified)")
    subscribers;

  Printf.printf "\nhistory Byzantine-linearizable: %b\n"
    (Byzlin.verifiable ~writer:0 ~correct:(fun pid -> s.correct.(pid)) h);
  Printf.printf
    "All subscribers accepted a certified revision; the uncertified draft\n\
     and the forged revision were rejected everywhere.\n"
