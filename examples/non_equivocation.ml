(* Non-equivocating broadcast (Section 1.2): a Byzantine broadcaster tries
   to send different proposals to different processes — the classic way to
   foil consensus. With sticky registers it cannot: once one correct
   process delivers a value, everyone delivers the same value.

   Run with: dune exec examples/non_equivocation.exe *)

open Lnd

let () =
  let n = 4 and f = 1 in
  Printf.printf
    "== non-equivocation: Byzantine p0 proposes 'attack' to some and \
     'retreat' to others ==\n";
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:3) in
  let bc =
    Broadcast.Neq.create space sched ~n ~f ~slots:1 ~byzantine:[ 0 ] ()
  in

  (* Byzantine broadcaster: attacks its own sticky register with the
     equivocation strategy (writes 'attack', then overwrites its echo
     register with 'retreat' and answers different readers differently). *)
  ignore
    (Byz_sticky.spawn sched
       bc.Broadcast.Neq.instances.(0).(0).Broadcast.Neq.regs ~pid:0
       (Byz_script.Equivocating_writer
          { va = "attack"; vb = "retreat"; flip_after = 2 }));

  let delivered = Array.make n None in
  for pid = 1 to n - 1 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "general%d" pid)
         (fun () ->
           delivered.(pid) <-
             Broadcast.Neq.deliver bc ~reader:pid ~sender:0 ~slot:0;
           Printf.printf "p%d delivers: %s\n" pid
             (match delivered.(pid) with
             | Some m -> Printf.sprintf "%S" m
             | None -> "(nothing)")))
  done;

  (match Sched.run ~max_steps:6_000_000 sched with
  | Sched.Quiescent -> ()
  | _ -> failwith "simulation did not quiesce");

  let values =
    Array.to_list delivered |> List.filter_map (fun x -> x)
    |> List.sort_uniq compare
  in
  Printf.printf "\ndistinct values delivered by correct processes: %d\n"
    (List.length values);
  (match values with
  | [] -> Printf.printf "nobody delivered — also consistent (no quorum formed)\n"
  | [ v ] ->
      Printf.printf
        "UNIQUENESS holds: every correct process that delivered got %S\n" v
  | _ -> failwith "BUG: correct processes delivered different values!");
  Printf.printf
    "\n(Contrast: Srikanth-Toueg authenticated broadcast over message \
     passing\n\
     accepts BOTH equivocating messages — see test 'ST: no uniqueness' in\n\
     the test suite. Sticky registers close exactly this gap.)\n"
