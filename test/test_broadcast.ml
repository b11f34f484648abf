(* Non-equivocating broadcast from sticky registers (Section 1.2). *)

open Lnd_shm
open Lnd_runtime
module B = Lnd_broadcast.Broadcast

type sys = { sched : Sched.t; bc : B.Neq.t; n : int }

let mk ?(seed = 3) ?(slots = 1) ~n ~f ~byzantine () : sys =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  let bc = B.Neq.create space sched ~n ~f ~slots ~byzantine () in
  { sched; bc; n }

let run_ok ?(max_steps = 6_000_000) s =
  match Sched.run ~max_steps s.sched with
  | Sched.Quiescent ->
      (match Sched.failures s.sched with
      | [] -> ()
      | ((f : Sched.fiber), e) :: _ ->
          Alcotest.failf "fiber %s failed: %s" f.Sched.fname
            (Printexc.to_string e))
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

(* A correct sender's broadcast is delivered by everyone. *)
let test_delivery () =
  let s = mk ~n:4 ~f:1 ~byzantine:[] () in
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"sender" (fun () ->
         B.Neq.bcast s.bc ~sender:0 ~slot:0 "msg"));
  run_ok s;
  for pid = 1 to 3 do
    let got = ref None in
    ignore
      (Sched.spawn s.sched ~pid ~name:(Printf.sprintf "d%d" pid) (fun () ->
           got := B.Neq.deliver s.bc ~reader:pid ~sender:0 ~slot:0));
    run_ok s;
    Alcotest.(check (option string))
      (Printf.sprintf "delivered at p%d" pid)
      (Some "msg") !got
  done

(* Multiple senders, multiple slots. *)
let test_multi_sender () =
  let s = mk ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"s0" (fun () ->
         B.Neq.bcast s.bc ~sender:0 ~slot:0 "from0";
         B.Neq.bcast s.bc ~sender:0 ~slot:1 "from0b"));
  ignore
    (Sched.spawn s.sched ~pid:2 ~name:"s2" (fun () ->
         B.Neq.bcast s.bc ~sender:2 ~slot:0 "from2"));
  run_ok s;
  let got = ref [] in
  ignore
    (Sched.spawn s.sched ~pid:1 ~name:"d1" (fun () ->
         got :=
           [
             B.Neq.deliver s.bc ~reader:1 ~sender:0 ~slot:0;
             B.Neq.deliver s.bc ~reader:1 ~sender:0 ~slot:1;
             B.Neq.deliver s.bc ~reader:1 ~sender:2 ~slot:0;
           ]));
  run_ok s;
  Alcotest.(check (list (option string)))
    "all slots delivered"
    [ Some "from0"; Some "from0b"; Some "from2" ]
    !got

(* UNIQUENESS: an equivocating Byzantine sender cannot make two correct
   processes deliver different messages — contrast with
   test_st_no_uniqueness in the message-passing suite. *)
let test_non_equivocation ~seed () =
  let n = 4 and f = 1 in
  let s = mk ~seed ~n ~f ~byzantine:[ 0 ] () in
  (* Byzantine sender 0 attacks its own instance with the sticky
     equivocation strategy (identity rotation for sender 0). *)
  ignore
    (Lnd_byz.Byz_sticky.spawn s.sched s.bc.B.Neq.instances.(0).(0).B.Neq.regs
       ~pid:0
       (Lnd_byz.Byz_script.Equivocating_writer
          { va = "a"; vb = "b"; flip_after = 2 }));
  let results = Array.make n None in
  for pid = 1 to 3 do
    ignore
      (Sched.spawn s.sched ~pid ~name:(Printf.sprintf "d%d" pid) (fun () ->
           results.(pid) <- B.Neq.deliver s.bc ~reader:pid ~sender:0 ~slot:0;
           (* deliver twice: the second must agree with the first *)
           let again = B.Neq.deliver s.bc ~reader:pid ~sender:0 ~slot:0 in
           match (results.(pid), again) with
           | Some x, Some y when x <> y ->
               Alcotest.failf "p%d delivered %s then %s" pid x y
           | Some _, None -> Alcotest.failf "p%d lost its delivery" pid
           | _ -> ()))
  done;
  run_ok s;
  let delivered = Array.to_list results |> List.filter_map (fun x -> x) in
  match delivered with
  | [] -> ()
  | v :: rest ->
      List.iter
        (fun v' ->
          Alcotest.(check string) "no two correct deliver differently" v v')
        rest

(* deliver_blocking returns once the sender's write lands. *)
let test_deliver_blocking () =
  let s = mk ~n:4 ~f:1 ~byzantine:[] () in
  let got = ref "" in
  ignore
    (Sched.spawn s.sched ~pid:1 ~name:"d" (fun () ->
         got := B.Neq.deliver_blocking s.bc ~reader:1 ~sender:0 ~slot:0));
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"s" (fun () ->
         B.Neq.bcast s.bc ~sender:0 ~slot:0 "late"));
  run_ok s;
  Alcotest.(check string) "blocking delivery" "late" !got

let tests =
  [
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "multi-sender multi-slot" `Quick test_multi_sender;
    Alcotest.test_case "non-equivocation (seed 31)" `Quick
      (test_non_equivocation ~seed:31);
    Alcotest.test_case "non-equivocation (seed 32)" `Quick
      (test_non_equivocation ~seed:32);
    Alcotest.test_case "non-equivocation (seed 33)" `Quick
      (test_non_equivocation ~seed:33);
    Alcotest.test_case "blocking delivery" `Quick test_deliver_blocking;
  ]
