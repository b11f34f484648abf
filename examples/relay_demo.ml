(* "You can lie but not deny" — the title scenario, end to end.

   A Byzantine writer writes and signs a value ("lies"), lets one reader
   verify it, then erases every register it owns and answers "no" to all
   further inquiries ("denies"). Algorithm 1 guarantees the denial fails:
   once any correct reader verified the value, every later VERIFY by any
   correct reader still returns true — without any cryptography.

   Run with: dune exec examples/relay_demo.exe *)

open Lnd
module V = Spec.Verifiable_spec

let () =
  let n = 4 and f = 1 in
  Printf.printf "== relay demo: Byzantine writer lies, then tries to deny ==\n";
  (* The adversary: writes + "signs" v, answers two inquiries, then resets
     R*, its witness register and all its mailboxes, and denies. *)
  let q = Quorum.make_relaxed ~n ~f in
  let s =
    Diff.session (Policy.random ~seed:11)
      (Diff.verifiable_plan q ~byzantine:[ 0 ]
         ~scripts:
           [ (0, Byz_script.Denying_writer { v = "the-lie"; deny_after = 2 }) ])
  in
  (* Run one VERIFY(the-lie) at [pid] to quiescence; its result. *)
  let verify ~pid ~name phase =
    s.client ~pid ~name [ Diff.verify q ~pid "the-lie" ];
    (match Sched.run ~max_steps:4_000_000 s.sched with
    | Sched.Quiescent -> ()
    | _ -> failwith (phase ^ " did not quiesce"));
    List.exists
      (fun (e : (V.op, V.res) History.entry) ->
        match e.ret with
        | Some (V.Verified ok, _) -> e.pid = pid && ok
        | _ -> false)
      (History.entries (s.history ()))
  in

  (* Reader p1 verifies first. *)
  let first = verify ~pid:1 ~name:"early-verifier" "phase 1" in
  Printf.printf "p1 (early): VERIFY(the-lie) -> %b\n" first;

  (* By now the writer has denied. Later readers must still verify true if
     p1 did (the relay property, Observation 13). *)
  Printf.printf "-- writer has now erased its registers and denies --\n";
  for pid = 2 to n - 1 do
    let later =
      verify ~pid ~name:(Printf.sprintf "late-verifier%d" pid) "phase 2"
    in
    Printf.printf "p%d (late):  VERIFY(the-lie) -> %b\n" pid later;
    if first && not later then
      failwith "BUG: relay violated — the denial succeeded!"
  done;

  Printf.printf "\nhistory Byzantine-linearizable: %b\n"
    (Byzlin.verifiable ~writer:0
       ~correct:(fun pid -> s.correct.(pid))
       (s.history ()));
  if first then
    Printf.printf
      "The writer lied — but could not deny: %d witnesses keep the \
       signature alive.\n"
      (n - f)
  else
    Printf.printf
      "(In this schedule no reader verified before the denial; rerun with \
       another seed.)\n"
