(* The consensus-proposal motivation from the paper's introduction
   (Section 1.2): "a Byzantine process can easily violate this
   'uniqueness' requirement by successively writing several properly
   signed values into this register (e.g., it could successively propose
   several values to try to foil consensus). To prevent this malicious
   behaviour, processes could be required to use SWMR sticky registers
   for storing values that should be unique."

   This demo builds exactly that: a proposal board where each process's
   proposal lives in its own sticky register. The Byzantine process tries
   to shop different proposals to different observers; stickiness pins it
   to one. Every correct process then applies the same deterministic
   choice rule to the settled board and picks the same winner — the
   uniqueness that signatures alone cannot provide.

   Run with: dune exec examples/proposal_board.exe *)

open Lnd

let n = 4
let f = 1

let () =
  Printf.printf
    "== proposal board: %d processes propose; p3 is Byzantine and tries \
     to shop two proposals ==\n"
    n;
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:9) in
  (* one sticky slot per proposer *)
  let board =
    Broadcast.Neq.create space sched ~n ~f ~slots:1 ~byzantine:[ 3 ] ()
  in

  (* Correct proposers post their proposals. *)
  List.iter
    (fun (pid, proposal) ->
      ignore
        (Sched.spawn sched ~pid ~name:(Printf.sprintf "propose%d" pid)
           (fun () ->
             Broadcast.Neq.bcast board ~sender:pid ~slot:0 proposal;
             Printf.printf "p%d proposes %S\n" pid proposal)))
    [ (0, "commit-tx-42"); (1, "abort"); (2, "commit-tx-42") ];

  (* The Byzantine proposer equivocates between two proposals. *)
  ignore
    (Byz_sticky.spawn sched
       board.Broadcast.Neq.instances.(3).(0).Broadcast.Neq.regs ~pid:0
       (Byz_script.Equivocating_writer
          { va = "evil-plan-A"; vb = "evil-plan-B"; flip_after = 2 }));
  Printf.printf "p3 (Byzantine) shops both %S and %S\n" "evil-plan-A"
    "evil-plan-B";

  (match Sched.run ~max_steps:20_000_000 sched with
  | Sched.Quiescent -> ()
  | _ -> failwith "posting proposals did not quiesce");

  (* Every correct process reads the whole board and applies the same
     deterministic rule: majority proposal, ties broken by value. *)
  let decisions = Array.make n None in
  for pid = 0 to n - 1 do
    if pid <> 3 then
      ignore
        (Sched.spawn sched ~pid ~name:(Printf.sprintf "decide%d" pid)
           (fun () ->
             let proposals =
               List.filter_map
                 (fun proposer ->
                   if proposer = pid then None
                   else
                     Broadcast.Neq.deliver board ~reader:pid ~sender:proposer
                       ~slot:0)
                 [ 0; 1; 2; 3 ]
             in
             (* plus this process's own proposal, if it made one *)
             let proposals =
               match pid with
               | 0 | 2 -> "commit-tx-42" :: proposals
               | 1 -> "abort" :: proposals
               | _ -> proposals
             in
             let counted =
               List.sort_uniq compare proposals
               |> List.map (fun p ->
                      ( List.length (List.filter (String.equal p) proposals),
                        p ))
               |> List.sort (fun a b -> compare b a)
             in
             match counted with
             | (votes, winner) :: _ ->
                 decisions.(pid) <- Some winner;
                 Printf.printf "p%d sees board %s -> decides %S (%d votes)\n"
                   pid
                   (String.concat "," (List.map (Printf.sprintf "%S") proposals))
                   winner votes
             | [] -> Printf.printf "p%d sees an empty board\n" pid))
  done;
  (match Sched.run ~max_steps:20_000_000 sched with
  | Sched.Quiescent -> ()
  | _ -> failwith "deciding did not quiesce");

  let decided =
    Array.to_list decisions |> List.filter_map (fun x -> x)
    |> List.sort_uniq compare
  in
  match decided with
  | [ winner ] ->
      Printf.printf
        "\nall correct processes decided %S — the Byzantine proposer was \
         pinned to a single proposal by the sticky register.\n"
        winner
  | [] -> Printf.printf "\nnobody decided (no quorum formed)\n"
  | ws ->
      failwith
        (Printf.sprintf "BUG: decisions diverged: %s" (String.concat "," ws))
