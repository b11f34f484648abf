(* Quickstart: a 4-process system (1 writer, 3 readers, tolerating f = 1
   Byzantine process) around one SWMR verifiable register.

   The writer writes and "signs" a value without any cryptography
   (Algorithm 1); readers verify it, and verification is relayable: once
   any reader verified the value, every reader will.

   Run with: dune exec examples/quickstart.exe *)

open Lnd
module V = Spec.Verifiable_spec

(* A run's completed operations, in the order they returned. *)
let responses h =
  List.sort
    (fun a b -> compare (History.response_time a) (History.response_time b))
    (History.complete_entries h)

let run (s : (_, _, _) Diff.session) =
  match Sched.run ~max_steps:2_000_000 s.sched with
  | Sched.Quiescent -> ()
  | _ -> failwith "simulation did not quiesce"

let () =
  let n = 4 and f = 1 in
  Printf.printf "== lie_not_deny quickstart: n=%d processes, f=%d Byzantine ==\n"
    n f;

  (* Build a simulated system: register space, fair seeded scheduler, and
     the background Help() fiber of every process (required by Alg. 1). *)
  let q = Quorum.make_relaxed ~n ~f in
  let s =
    Diff.session (Policy.random ~seed:1)
      (Diff.verifiable_plan q ~byzantine:[] ~scripts:[])
  in

  (* The writer (process 0) writes two values and signs one of them. *)
  s.client ~pid:0 ~name:"writer"
    [
      Diff.write_verifiable "launch-codes:4242";
      Diff.sign "launch-codes:4242";
      Diff.write_verifiable "unsigned-draft";
    ];
  run s;
  List.iter
    (fun (e : (V.op, V.res) History.entry) ->
      match (e.op, e.ret) with
      | V.Sign v, Some (V.Signed ok, _) ->
          Printf.printf "p0: WRITE + SIGN %S -> %s\n" v
            (if ok then "SUCCESS" else "FAIL")
      | V.Write ("unsigned-draft" as v), _ ->
          Printf.printf "p0: WRITE %S (never signed)\n" v
      | _ -> ())
    (responses (s.history ()));

  (* Readers read the register and verify both values. *)
  for pid = 1 to n - 1 do
    s.client ~pid
      ~name:(Printf.sprintf "reader%d" pid)
      [
        Diff.read_verifiable;
        Diff.verify q ~pid "launch-codes:4242";
        Diff.verify q ~pid "unsigned-draft";
      ]
  done;

  (* Run the simulation to quiescence; each reader reports once its last
     VERIFY returned. *)
  run s;
  let h = s.history () in
  let results pid =
    List.filter_map
      (fun (e : (V.op, V.res) History.entry) ->
        if e.pid = pid then Option.map fst e.ret else None)
      (History.entries h)
  in
  List.iter
    (fun (e : (V.op, V.res) History.entry) ->
      match (e.op, results e.pid) with
      | ( V.Verify "unsigned-draft",
          [ V.Val v; V.Verified signed; V.Verified draft ] ) ->
          Printf.printf
            "p%d: READ -> %S; VERIFY(launch-codes) -> %b; \
             VERIFY(unsigned-draft) -> %b\n"
            e.pid v signed draft
      | _ -> ())
    (responses h);

  (* The recorded history is Byzantine linearizable (Theorem 14). *)
  Printf.printf "\nhistory Byzantine-linearizable: %b\n"
    (Byzlin.verifiable ~writer:0 ~correct:(fun pid -> s.correct.(pid)) h);
  Printf.printf "total register accesses: %s\n"
    (Format.asprintf "%a" Space.pp_stats (Space.stats s.space))
