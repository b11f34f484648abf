(* The reliable-broadcast object (Cohen-Keidar translated onto sticky
   registers) and the Bracha message-passing contrast. *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Rb = Lnd_broadcast.Reliable
module Bracha = Lnd_msgpass.Bracha
module Net = Lnd_msgpass.Net

let run_ok ?(max_steps = 8_000_000) sched =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent -> ()
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

let mk_rb ?(seed = 3) ~n ~f ~slots ~byzantine () =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  let rb = Rb.create space sched ~n ~f ~slots ~byzantine () in
  (sched, rb)

(* Multi-shot, multi-sender delivery. *)
let test_rb_multishot () =
  let sched, rb = mk_rb ~n:4 ~f:1 ~slots:3 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"s0" (fun () ->
         ignore (Rb.bcast rb ~sender:0 "m0");
         ignore (Rb.bcast rb ~sender:0 "m1");
         ignore (Rb.bcast rb ~sender:0 "m2")));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"s1" (fun () ->
         ignore (Rb.bcast rb ~sender:1 "x0")));
  run_ok sched;
  let got = ref [] in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"d" (fun () ->
         got :=
           [
             Rb.deliver rb ~reader:2 ~sender:0 ~slot:0;
             Rb.deliver rb ~reader:2 ~sender:0 ~slot:1;
             Rb.deliver rb ~reader:2 ~sender:0 ~slot:2;
             Rb.deliver rb ~reader:2 ~sender:1 ~slot:0;
             Rb.deliver rb ~reader:2 ~sender:1 ~slot:1;
           ]));
  run_ok sched;
  Alcotest.(check (list (option string)))
    "sequence numbers respected"
    [ Some "m0"; Some "m1"; Some "m2"; Some "x0"; None ]
    !got

(* The recorded log is checked for uniqueness violations (none with a
   correct sender; none even with an equivocating Byzantine sender). *)
let test_rb_uniqueness_byz ~seed () =
  let sched, rb = mk_rb ~seed ~n:4 ~f:1 ~slots:1 ~byzantine:[ 0 ] () in
  ignore
    (Lnd_byz.Byz_sticky.spawn sched
       rb.Rb.neq.Lnd_broadcast.Broadcast.Neq.instances.(0).(0)
         .Lnd_broadcast.Broadcast.Neq.regs ~pid:0
       (Lnd_byz.Byz_script.Equivocating_writer
          { va = "yes"; vb = "no"; flip_after = 2 }));
  for pid = 1 to 3 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "d%d" pid) (fun () ->
           ignore (Rb.deliver rb ~reader:pid ~sender:0 ~slot:0);
           ignore (Rb.deliver rb ~reader:pid ~sender:0 ~slot:0)))
  done;
  run_ok sched;
  Alcotest.(check (list string))
    "no uniqueness violations" []
    (Rb.uniqueness_violations rb ~correct:(fun pid -> pid <> 0))

(* Sequential spec sanity via direct application. *)
let test_rb_spec () =
  let open Rb.Rb_spec in
  let s0 = init in
  let s1, r1 = apply_by s0 ~pid:2 (Bcast "hello") in
  Alcotest.(check bool) "bcast done" true (res_equal r1 Done);
  let _, r2 = apply_by s1 ~pid:5 (Deliver (2, 0)) in
  Alcotest.(check bool) "deliver finds it" true (res_equal r2 (Msg (Some "hello")));
  let _, r3 = apply_by s1 ~pid:5 (Deliver (2, 1)) in
  Alcotest.(check bool) "missing slot" true (res_equal r3 (Msg None));
  let _, r4 = apply_by s1 ~pid:5 (Deliver (3, 0)) in
  Alcotest.(check bool) "other sender empty" true (res_equal r4 (Msg None))

(* ---------------- Bracha over message passing ---------------- *)

type bsys = {
  sched : Sched.t;
  net : Net.t;
  procs : Bracha.proc option array;
  delivered : (int * string * int) list ref array;
}

let mk_bracha ?(seed = 5) ~n ~f ~byzantine () : bsys =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  let net = Net.create space ~n in
  let delivered = Array.init n (fun _ -> ref []) in
  let procs =
    Array.init n (fun pid ->
        if List.mem pid byzantine then None
        else begin
          let ep = Lnd_msgpass.Transport.of_net (Net.port net ~pid) in
          let p =
            Bracha.create ep ~n ~f ~deliver_cb:(fun ~sender ~value ~seq ->
                delivered.(pid) := (sender, value, seq) :: !(delivered.(pid)))
          in
          ignore
            (Sched.spawn sched ~pid ~name:(Printf.sprintf "bracha%d" pid)
               ~daemon:true (fun () -> Bracha.daemon p));
          Some p
        end)
  in
  { sched; net; procs; delivered }

let drain (s : bsys) ~steps =
  ignore
    (Sched.spawn s.sched ~pid:1 ~name:"drain" (fun () ->
         for _ = 1 to steps do
           Sched.yield ()
         done));
  run_ok s.sched

let test_bracha_correct_sender () =
  let n = 4 and f = 1 in
  let s = mk_bracha ~n ~f ~byzantine:[] () in
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"b" (fun () ->
         ignore (Bracha.broadcast (Option.get s.procs.(0)) "hello")));
  drain s ~steps:4000;
  for pid = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "p%d delivered" pid)
      true
      (List.mem (0, "hello", 0) !(s.delivered.(pid)))
  done

(* UNIQUENESS: unlike Srikanth-Toueg, an equivocating Byzantine sender
   cannot get two different seq-0 messages delivered. *)
let test_bracha_uniqueness ~seed () =
  let n = 4 and f = 1 in
  let s = mk_bracha ~seed ~n ~f ~byzantine:[ 0 ] () in
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"byz" (fun () ->
         let p = Net.port s.net ~pid:0 in
         let m v =
           Univ.inj Bracha.bmsg_key
             { Bracha.tag = Bracha.Init; sender = 0; value = v; seq = 0 }
         in
         (* send init "a" to p1/p2 and init "b" to p2/p3 *)
         Net.send p ~dst:1 (m "a");
         Net.send p ~dst:2 (m "a");
         Net.send p ~dst:2 (m "b");
         Net.send p ~dst:3 (m "b")));
  drain s ~steps:6000;
  (* collect all deliveries of (0, _, 0) by correct processes *)
  let values =
    List.concat_map
      (fun pid ->
        List.filter_map
          (fun (sdr, v, sq) -> if sdr = 0 && sq = 0 then Some v else None)
          !(s.delivered.(pid)))
      [ 1; 2; 3 ]
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most one value delivered (%s)"
       (String.concat "," values))
    true
    (List.length values <= 1);
  (* totality: if one correct process delivered, all did *)
  let who_delivered =
    List.filter
      (fun pid ->
        List.exists (fun (sdr, _, sq) -> sdr = 0 && sq = 0) !(s.delivered.(pid)))
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool)
    "all-or-nothing among correct" true
    (List.length who_delivered = 0 || List.length who_delivered = 3)

(* Unforgeability: f forged echoes/readies cannot cause delivery. *)
let test_bracha_unforgeability () =
  let n = 4 and f = 1 in
  let s = mk_bracha ~n ~f ~byzantine:[ 3 ] () in
  ignore
    (Sched.spawn s.sched ~pid:3 ~name:"byz" (fun () ->
         let p = Net.port s.net ~pid:3 in
         let m tag =
           Univ.inj Bracha.bmsg_key
             { Bracha.tag; sender = 0; value = "fake"; seq = 0 }
         in
         Net.broadcast p (m Bracha.Echo);
         Net.broadcast p (m Bracha.Ready);
         Net.broadcast p (m Bracha.Ready)));
  drain s ~steps:4000;
  for pid = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "p%d did not deliver fake" pid)
      false
      (List.mem (0, "fake", 0) !(s.delivered.(pid)))
  done


let tests =
  [
    Alcotest.test_case "reliable bcast: multi-shot" `Quick test_rb_multishot;
    Alcotest.test_case "reliable bcast: uniqueness vs equivocation (seed 1)"
      `Quick
      (test_rb_uniqueness_byz ~seed:1);
    Alcotest.test_case "reliable bcast: uniqueness vs equivocation (seed 2)"
      `Quick
      (test_rb_uniqueness_byz ~seed:2);
    Alcotest.test_case "reliable bcast: sequential spec" `Quick test_rb_spec;
    Alcotest.test_case "bracha: correct sender" `Quick
      test_bracha_correct_sender;
    Alcotest.test_case "bracha: uniqueness (seed 11)" `Quick
      (test_bracha_uniqueness ~seed:11);
    Alcotest.test_case "bracha: uniqueness (seed 12)" `Quick
      (test_bracha_uniqueness ~seed:12);
    Alcotest.test_case "bracha: uniqueness (seed 13)" `Quick
      (test_bracha_uniqueness ~seed:13);
    Alcotest.test_case "bracha: unforgeability" `Quick
      test_bracha_unforgeability;
  ]
