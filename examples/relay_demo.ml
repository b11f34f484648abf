(* "You can lie but not deny" — the title scenario, end to end.

   A Byzantine writer writes and signs a value ("lies"), lets one reader
   verify it, then erases every register it owns and answers "no" to all
   further inquiries ("denies"). Algorithm 1 guarantees the denial fails:
   once any correct reader verified the value, every later VERIFY by any
   correct reader still returns true — without any cryptography.

   Run with: dune exec examples/relay_demo.exe *)

open Lnd

let () =
  let n = 4 and f = 1 in
  Printf.printf "== relay demo: Byzantine writer lies, then tries to deny ==\n";
  let sys =
    Verifiable_system.make ~policy:(Policy.random ~seed:11) ~n ~f
      ~byzantine:[ 0 ] ()
  in
  (* The adversary: writes + "signs" v, answers two inquiries, then resets
     R*, its witness register and all its mailboxes, and denies. *)
  ignore
    (Byz_verifiable.spawn sys.sched sys.regs ~pid:0
       (Byz_script.Denying_writer { v = "the-lie"; deny_after = 2 }));

  (* Reader p1 verifies first. *)
  let first = ref false in
  ignore
    (Verifiable_system.client sys ~pid:1 ~name:"early-verifier" (fun () ->
         first := Verifiable_system.op_verify sys ~pid:1 "the-lie";
         Printf.printf "p1 (early): VERIFY(the-lie) -> %b\n" !first));
  (match Verifiable_system.run ~max_steps:4_000_000 sys with
  | Sched.Quiescent -> ()
  | _ -> failwith "phase 1 did not quiesce");

  (* By now the writer has denied. Later readers must still verify true if
     p1 did (the relay property, Observation 13). *)
  Printf.printf "-- writer has now erased its registers and denies --\n";
  for pid = 2 to n - 1 do
    let later = ref false in
    ignore
      (Verifiable_system.client sys ~pid
         ~name:(Printf.sprintf "late-verifier%d" pid)
         (fun () ->
           later := Verifiable_system.op_verify sys ~pid "the-lie";
           Printf.printf "p%d (late):  VERIFY(the-lie) -> %b\n" pid !later));
    (match Verifiable_system.run ~max_steps:4_000_000 sys with
    | Sched.Quiescent -> ()
    | _ -> failwith "phase 2 did not quiesce");
    if !first && not !later then
      failwith "BUG: relay violated — the denial succeeded!"
  done;

  Printf.printf "\nhistory Byzantine-linearizable: %b\n"
    (Verifiable_system.byz_linearizable sys);
  if !first then
    Printf.printf
      "The writer lied — but could not deny: %d witnesses keep the \
       signature alive.\n"
      (n - f)
  else
    Printf.printf
      "(In this schedule no reader verified before the denial; rerun with \
       another seed.)\n"
