(* The asset-transfer object (Cohen-Keidar's application, signature-free
   on sticky registers). *)

open Lnd_shm
open Lnd_runtime
module Asset = Lnd_asset.Asset

let run_ok ?(max_steps = 20_000_000) sched =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent -> ()
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

let mk ?(seed = 3) ~n ~f ~slots ~byzantine () =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  let t =
    Asset.create space sched ~n ~f ~slots ~initial_balance:100 ~byzantine ()
  in
  (sched, t)

let test_simple_transfer () =
  let sched, t = mk ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         Alcotest.(check bool) "transfer issued" true
           (Asset.transfer t ~src:0 ~dst:1 ~amount:30)));
  run_ok sched;
  let b0 = ref (-1) and b1 = ref (-1) in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"v" (fun () ->
         b0 := Asset.balance t ~pid:2 ~acct:0;
         b1 := Asset.balance t ~pid:2 ~acct:1));
  run_ok sched;
  Alcotest.(check int) "sender debited" 70 !b0;
  Alcotest.(check int) "receiver credited" 130 !b1

let test_overdraft_rejected () =
  let sched, t = mk ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         Alcotest.(check bool) "first ok" true
           (Asset.transfer t ~src:0 ~dst:1 ~amount:80);
         Alcotest.(check bool) "overdraft refused" false
           (Asset.transfer t ~src:0 ~dst:2 ~amount:50)));
  run_ok sched;
  let l = ref [||] in
  ignore
    (Sched.spawn sched ~pid:3 ~name:"v" (fun () -> l := Asset.ledger t ~pid:3));
  run_ok sched;
  Alcotest.(check int) "balance after" 20 (!l).(0);
  Alcotest.(check bool) "conserved" true (Asset.conserved t !l)

let test_self_and_invalid_transfers () =
  let sched, t = mk ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         Alcotest.(check bool) "self transfer refused" false
           (Asset.transfer t ~src:0 ~dst:0 ~amount:10);
         Alcotest.(check bool) "zero refused" false
           (Asset.transfer t ~src:0 ~dst:1 ~amount:0);
         Alcotest.(check bool) "negative refused" false
           (Asset.transfer t ~src:0 ~dst:1 ~amount:(-5));
         Alcotest.(check bool) "bad account refused" false
           (Asset.transfer t ~src:0 ~dst:9 ~amount:5)));
  run_ok sched

(* A Byzantine owner injects a raw overdraft into its sticky slot; every
   correct validator rejects it identically, and conservation holds. *)
let test_byz_overdraft_rejected_everywhere () =
  let sched, t = mk ~n:4 ~f:1 ~slots:1 ~byzantine:[ 3 ] () in
  ignore
    (Sched.spawn sched ~pid:3 ~name:"byz" (fun () ->
         (* writes an overdraft transfer directly, bypassing validation *)
         Lnd_broadcast.Broadcast.Neq.bcast t.Asset.grid ~sender:3 ~slot:0
           "0:5000"));
  run_ok sched;
  let ledgers = Array.make 3 [||] in
  for pid = 0 to 2 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ledgers.(pid) <- Asset.ledger t ~pid))
  done;
  run_ok sched;
  Array.iter
    (fun l ->
      Alcotest.(check int) "byz account untouched" 100 l.(3);
      Alcotest.(check int) "victim account untouched" 100 l.(0);
      Alcotest.(check bool) "conserved" true (Asset.conserved t l))
    ledgers

(* A Byzantine owner cannot double-spend by equivocation: slot 0 is
   sticky, so validators all see the same transfer (or none). *)
let test_byz_no_double_spend ~seed () =
  let sched, t = mk ~seed ~n:4 ~f:1 ~slots:1 ~byzantine:[ 0 ] () in
  ignore
    (Lnd_byz.Byz_sticky.spawn sched
       t.Asset.grid.Lnd_broadcast.Broadcast.Neq.instances.(0).(0)
         .Lnd_broadcast.Broadcast.Neq.regs ~pid:0
       (Lnd_byz.Byz_script.Equivocating_writer
          { va = "1:100"; vb = "2:100"; flip_after = 2 }));
  run_ok sched;
  let ledgers = Array.make 4 None in
  for pid = 1 to 3 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ledgers.(pid) <- Some (Asset.ledger t ~pid)))
  done;
  run_ok sched;
  let views = List.filter_map (fun x -> x) (Array.to_list ledgers) in
  List.iter
    (fun l ->
      Alcotest.(check bool) "conserved" true (Asset.conserved t l);
      (* at most ONE of the two conflicting transfers took effect *)
      Alcotest.(check bool)
        "no double spend" true
        (l.(1) + l.(2) <= 300))
    views;
  (* all correct validators agree on the settled state *)
  match views with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check (array int)) "validators agree" first l)
        rest

(* Concurrent transfers from several accounts: conservation and agreement
   after settlement. *)
let test_concurrent_transfers ~seed () =
  let sched, t = mk ~seed ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         ignore (Asset.transfer t ~src:0 ~dst:1 ~amount:10);
         ignore (Asset.transfer t ~src:0 ~dst:2 ~amount:20)));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"a1" (fun () ->
         ignore (Asset.transfer t ~src:1 ~dst:3 ~amount:40)));
  ignore
    (Sched.spawn sched ~pid:2 ~name:"a2" (fun () ->
         ignore (Asset.transfer t ~src:2 ~dst:0 ~amount:5)));
  run_ok sched;
  let ledgers = Array.make 4 [||] in
  for pid = 1 to 3 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "v%d" pid) (fun () ->
           ledgers.(pid) <- Asset.ledger t ~pid))
  done;
  run_ok sched;
  for pid = 1 to 3 do
    Alcotest.(check bool) "conserved" true (Asset.conserved t ledgers.(pid));
    Alcotest.(check (array int)) "validators agree" ledgers.(1) ledgers.(pid)
  done

(* Settled prefixes are monotone: an earlier view is contained in a later
   view (stickiness). *)
let test_prefix_monotone ~seed () =
  let sched, t = mk ~seed ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         ignore (Asset.transfer t ~src:0 ~dst:1 ~amount:10)));
  run_ok sched;
  let v1 = ref [] in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"view1" (fun () ->
         v1 := Asset.view t ~pid:2));
  run_ok sched;
  ignore
    (Sched.spawn sched ~pid:1 ~name:"a1" (fun () ->
         ignore (Asset.transfer t ~src:1 ~dst:3 ~amount:15)));
  run_ok sched;
  let v2 = ref [] in
  ignore
    (Sched.spawn sched ~pid:2 ~name:"view2" (fun () ->
         v2 := Asset.view t ~pid:2));
  run_ok sched;
  Alcotest.(check bool)
    "later view extends earlier view" true
    (Asset.prefix_consistent ~earlier:!v1 ~later:!v2)

(* Linearizability of recorded asset histories: transfers and balance
   reads, checked against the sequential specification (with the source
   account embedded in the op, since the spec is pid-indexed). *)
module Spec_n4 = struct
  module A = Asset.Asset_spec

  type op = int * A.op (* (invoking pid, operation) *)
  type res = A.res
  type state = A.state

  let init = A.init ~n:4 ~initial_balance:100
  let apply s (pid, op) = A.apply_by s ~pid op
  let res_equal = A.res_equal

  let pp_op fmt (pid, op) = Format.fprintf fmt "p%d:%a" pid A.pp_op op
  let pp_res = A.pp_res
end

module AC = Lnd_history.Spec.Checker (Spec_n4)

let test_linearizable_history ~seed () =
  let sched, t = mk ~seed ~n:4 ~f:1 ~slots:2 ~byzantine:[] () in
  let h : (Spec_n4.op, Spec_n4.res) Lnd_history.History.t =
    Lnd_history.History.create ()
  in
  let rec_transfer ~src ~dst ~amount =
    ignore
      (Lnd_history.History.record h ~pid:src
         (src, Asset.Asset_spec.Transfer { dst; amount })
         (fun () -> Asset.Asset_spec.Ack (Asset.transfer t ~src ~dst ~amount)))
  in
  let rec_balance ~pid ~acct =
    ignore
      (Lnd_history.History.record h ~pid
         (pid, Asset.Asset_spec.Balance acct)
         (fun () -> Asset.Asset_spec.Amount (Asset.balance t ~pid ~acct)))
  in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"a0" (fun () ->
         rec_transfer ~src:0 ~dst:1 ~amount:30;
         rec_transfer ~src:0 ~dst:2 ~amount:90 (* may be refused *)));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"a1" (fun () ->
         rec_transfer ~src:1 ~dst:3 ~amount:50;
         rec_balance ~pid:1 ~acct:0));
  ignore
    (Sched.spawn sched ~pid:2 ~name:"a2" (fun () ->
         rec_balance ~pid:2 ~acct:1;
         rec_balance ~pid:2 ~acct:3));
  run_ok sched;
  Alcotest.(check bool)
    "asset history linearizable" true (AC.linearizable h)

let tests =
  [
    Alcotest.test_case "simple transfer" `Quick test_simple_transfer;
    Alcotest.test_case "linearizable history (seed 21)" `Quick
      (test_linearizable_history ~seed:21);
    Alcotest.test_case "linearizable history (seed 22)" `Quick
      (test_linearizable_history ~seed:22);
    Alcotest.test_case "linearizable history (seed 23)" `Quick
      (test_linearizable_history ~seed:23);
    Alcotest.test_case "overdraft rejected" `Quick test_overdraft_rejected;
    Alcotest.test_case "invalid transfers refused" `Quick
      test_self_and_invalid_transfers;
    Alcotest.test_case "byz overdraft rejected everywhere" `Quick
      test_byz_overdraft_rejected_everywhere;
    Alcotest.test_case "byz no double spend (seed 7)" `Quick
      (test_byz_no_double_spend ~seed:7);
    Alcotest.test_case "byz no double spend (seed 8)" `Quick
      (test_byz_no_double_spend ~seed:8);
    Alcotest.test_case "concurrent transfers (seed 9)" `Quick
      (test_concurrent_transfers ~seed:9);
    Alcotest.test_case "concurrent transfers (seed 10)" `Quick
      (test_concurrent_transfers ~seed:10);
    Alcotest.test_case "settled prefix monotone" `Quick
      (test_prefix_monotone ~seed:11);
  ]
