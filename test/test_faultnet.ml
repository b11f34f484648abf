(* Network fault layer tests: Faultnet determinism and fairness, the
   Rlink retransmission layer, zero-plan equivalence with the reliable
   Net, and the chaos fuzzer stress sweep (protocols under sustained
   drop/duplication/reorder + healing partitions). *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Net = Lnd_msgpass.Net
module Faultnet = Lnd_msgpass.Faultnet
module Rlink = Lnd_msgpass.Rlink
module Transport = Lnd_msgpass.Transport
module St = Lnd_msgpass.Auth_broadcast
module Chaos = Lnd_fuzz.Chaos

let run_ok ?(max_steps = 2_000_000) sched =
  match Sched.run ~max_steps sched with
  | Sched.Quiescent ->
      (match Sched.failures sched with
      | [] -> ()
      | ((f : Sched.fiber), e) :: _ ->
          Alcotest.failf "fiber %s failed: %s" f.Sched.fname
            (Printexc.to_string e))
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

(* ---------------- Net: independent cursors ---------------- *)

let test_net_two_ports () =
  (* two ports of the same pid each see the whole log: receive cursors
     are per port, not per process *)
  let space = Space.create ~n:2 in
  let sched = Sched.create ~space ~choose:(Policy.round_robin ()) in
  let net = Net.create space ~n:2 in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"sender" (fun () ->
         let p = Net.port net ~pid:0 in
         Net.send p ~dst:1 (Univ.inj Univ.int 7);
         Net.send p ~dst:1 (Univ.inj Univ.int 8)));
  run_ok sched;
  let got_a = ref [] and got_b = ref [] in
  ignore
    (Sched.spawn sched ~pid:1 ~name:"receiver" (fun () ->
         let a = Net.port net ~pid:1 in
         let b = Net.port net ~pid:1 in
         got_a := List.filter_map (Univ.prj Univ.int) (Net.poll_from a ~src:0);
         got_b := List.filter_map (Univ.prj Univ.int) (Net.poll_from b ~src:0)));
  run_ok sched;
  Alcotest.(check (list int)) "port a sees all" [ 7; 8 ] !got_a;
  Alcotest.(check (list int)) "port b sees all independently" [ 7; 8 ] !got_b

(* ---------------- zero plan ≡ Net ---------------- *)

(* Run a small ST-broadcast system over the given endpoint factory and
   return (per-pid accepted check, total steps). *)
let run_st_on ~mk_ep =
  let n = 4 and f = 1 in
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:11) in
  let net = Net.create space ~n in
  let procs = Array.make n None in
  for pid = 0 to n - 1 do
    let t =
      St.create (mk_ep net ~pid) ~n ~f
        ~accept_cb:(fun ~sender:_ ~value:_ ~seq:_ -> ())
    in
    procs.(pid) <- Some t;
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "st%d" pid) ~daemon:true
         (fun () -> St.daemon t))
  done;
  ignore
    (Sched.spawn sched ~pid:0 ~name:"bc" (fun () ->
         ignore (St.broadcast (Option.get procs.(0)) "a");
         ignore (St.broadcast (Option.get procs.(0)) "b")));
  for pid = 0 to n - 1 do
    ignore
      (Sched.spawn sched ~pid ~name:(Printf.sprintf "wait%d" pid) (fun () ->
           let t = Option.get procs.(pid) in
           while
             not
               (St.accepted t ~sender:0 ~value:"a" ~seq:0
               && St.accepted t ~sender:0 ~value:"b" ~seq:1)
           do
             Sched.yield ()
           done))
  done;
  run_ok sched;
  let accepted =
    Array.map
      (function
        | None -> false
        | Some t ->
            St.accepted t ~sender:0 ~value:"a" ~seq:0
            && St.accepted t ~sender:0 ~value:"b" ~seq:1)
      procs
  in
  (accepted, Sched.steps sched)

let test_zero_plan_equivalence () =
  let acc_net, steps_net =
    run_st_on ~mk_ep:(fun net ~pid -> Transport.of_net (Net.port net ~pid))
  in
  let acc_fn, steps_fn =
    run_st_on ~mk_ep:(fun net ~pid ->
        Faultnet.transport (Faultnet.wrap net Faultnet.zero) ~pid)
  in
  Alcotest.(check (array bool)) "same acceptance" acc_net acc_fn;
  Alcotest.(check int) "same step count (no hidden scheduling points)"
    steps_net steps_fn

(* ---------------- determinism ---------------- *)

let lossy_plan seed =
  {
    Faultnet.fault_seed = seed;
    drop_pct = 35;
    dup_pct = 30;
    delay_pct = 50;
    max_delay = 40;
    fair_burst = 2;
    partitions = [];
  }

(* Send 30 numbered messages 0→1 through a faulty link and record the
   receiver-side delivery order. *)
let delivery_trace plan =
  let space = Space.create ~n:2 in
  let sched = Sched.create ~space ~choose:(Policy.round_robin ()) in
  let net = Net.create space ~n:2 in
  let fnet = Faultnet.wrap net plan in
  let got = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"sender" (fun () ->
         let p = Faultnet.port fnet ~pid:0 in
         for i = 1 to 30 do
           Faultnet.send p ~dst:1 (Univ.inj Univ.int i);
           Sched.yield ()
         done));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"receiver" (fun () ->
         let p = Faultnet.port fnet ~pid:1 in
         (* drain long enough for every delayed message to mature *)
         for _ = 1 to 200 do
           List.iter
             (fun m ->
               match Univ.prj Univ.int m with
               | Some i -> got := i :: !got
               | None -> ())
             (Faultnet.poll_from p ~src:0);
           Sched.yield ()
         done));
  run_ok sched;
  List.rev !got

let test_same_seed_same_trace () =
  let t1 = delivery_trace (lossy_plan 3) in
  let t2 = delivery_trace (lossy_plan 3) in
  Alcotest.(check (list int)) "identical delivery trace" t1 t2;
  Alcotest.(check bool) "faults actually fired (not a perfect FIFO run)" true
    (t1 <> List.init 30 (fun i -> i + 1))

let test_different_seed_different_trace () =
  let t1 = delivery_trace (lossy_plan 3) in
  let t2 = delivery_trace (lossy_plan 4) in
  Alcotest.(check bool) "different fault seed, different trace" true (t1 <> t2)

let test_reordering_occurs () =
  let plan =
    {
      Faultnet.fault_seed = 9;
      drop_pct = 0;
      dup_pct = 0;
      delay_pct = 60;
      max_delay = 50;
      fair_burst = 0;
      partitions = [];
    }
  in
  let t = delivery_trace plan in
  Alcotest.(check (list int))
    "nothing lost (delay only)"
    (List.init 30 (fun i -> i + 1))
    (List.sort compare t);
  Alcotest.(check bool) "delivery order differs from send order" true
    (t <> List.init 30 (fun i -> i + 1))

let test_fair_burst_forces_delivery () =
  (* drop everything — the fairness cap alone lets every (burst+1)-th
     message through *)
  let plan =
    {
      Faultnet.fault_seed = 1;
      drop_pct = 100;
      dup_pct = 0;
      delay_pct = 0;
      max_delay = 0;
      fair_burst = 2;
      partitions = [];
    }
  in
  let t = delivery_trace plan in
  Alcotest.(check (list int)) "every third message forced through"
    [ 3; 6; 9; 12; 15; 18; 21; 24; 27; 30 ] t

(* ---------------- Rlink ---------------- *)

let test_rlink_exactly_once () =
  (* heavy drop + duplication + reorder; the reliable link must deliver
     every message exactly once *)
  let space = Space.create ~n:2 in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed:7) in
  let net = Net.create space ~n:2 in
  let fnet = Faultnet.wrap net (lossy_plan 5) in
  let sender = Rlink.create (Faultnet.transport fnet ~pid:0) in
  let receiver = Rlink.create (Faultnet.transport fnet ~pid:1) in
  let total = 25 in
  let got = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"sender" (fun () ->
         for i = 1 to total do
           Rlink.send sender ~dst:1 (Univ.inj Univ.int i)
         done;
         (* pump until everything is acked *)
         while Rlink.pending sender > 0 do
           ignore (Rlink.poll_all sender);
           Sched.yield ()
         done));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"receiver" (fun () ->
         (* keep pumping past the last delivery: the final acks can be
            dropped too, and only a retransmission-reack round heals that *)
         while List.length !got < total || Rlink.pending sender > 0 do
           List.iter
             (fun (_, m) ->
               match Univ.prj Univ.int m with
               | Some i -> got := i :: !got
               | None -> ())
             (Rlink.poll_all receiver);
           Sched.yield ()
         done));
  run_ok sched;
  Alcotest.(check (list int)) "every message exactly once"
    (List.init total (fun i -> i + 1))
    (List.sort compare !got);
  let st = Rlink.stats sender in
  Alcotest.(check bool) "losses actually forced retransmissions" true
    (st.Rlink.retransmissions > 0);
  Alcotest.(check int) "nothing left in flight" 0 (Rlink.pending sender)

let test_rlink_partition_heals () =
  (* the message is sent while the link is cut; retransmission delivers
     it after the partition heals *)
  let space = Space.create ~n:2 in
  let sched = Sched.create ~space ~choose:(Policy.round_robin ()) in
  let net = Net.create space ~n:2 in
  let plan =
    {
      Faultnet.zero with
      Faultnet.partitions =
        [ { Faultnet.cut_from = 0; cut_until = 2_000; island = [ 1 ] } ];
    }
  in
  let fnet = Faultnet.wrap net plan in
  let sender = Rlink.create (Faultnet.transport fnet ~pid:0) in
  let receiver = Rlink.create (Faultnet.transport fnet ~pid:1) in
  let got = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"sender" (fun () ->
         Rlink.send sender ~dst:1 (Univ.inj Univ.int 99);
         while Rlink.pending sender > 0 do
           ignore (Rlink.poll_all sender);
           Sched.yield ()
         done));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"receiver" (fun () ->
         while !got = [] do
           List.iter
             (fun (_, m) ->
               match Univ.prj Univ.int m with
               | Some i ->
                   got := i :: !got;
                   Alcotest.(check bool) "delivered only after healing" true
                     (Sched.now () >= 2_000)
               | None -> ())
             (Rlink.poll_all receiver);
           Sched.yield ()
         done));
  run_ok sched;
  Alcotest.(check (list int)) "delivered exactly once" [ 99 ] !got;
  Alcotest.(check bool) "partition cut the first copy" true
    ((Faultnet.stats fnet).Faultnet.cut > 0)

let test_rlink_inert_on_reliable () =
  (* over the zero plan the reliable-link layer must not retransmit *)
  let space = Space.create ~n:2 in
  let sched = Sched.create ~space ~choose:(Policy.round_robin ()) in
  let net = Net.create space ~n:2 in
  let fnet = Faultnet.wrap net Faultnet.zero in
  let sender = Rlink.create (Faultnet.transport fnet ~pid:0) in
  let receiver = Rlink.create (Faultnet.transport fnet ~pid:1) in
  let got = ref [] in
  ignore
    (Sched.spawn sched ~pid:0 ~name:"sender" (fun () ->
         for i = 1 to 10 do
           Rlink.send sender ~dst:1 (Univ.inj Univ.int i)
         done;
         while Rlink.pending sender > 0 do
           ignore (Rlink.poll_all sender);
           Sched.yield ()
         done));
  ignore
    (Sched.spawn sched ~pid:1 ~name:"receiver" (fun () ->
         while List.length !got < 10 do
           List.iter
             (fun (_, m) ->
               match Univ.prj Univ.int m with
               | Some i -> got := i :: !got
               | None -> ())
             (Rlink.poll_all receiver);
           Sched.yield ()
         done));
  run_ok sched;
  Alcotest.(check (list int)) "all delivered in order"
    (List.init 10 (fun i -> i + 1))
    (List.rev !got);
  let st = Rlink.stats sender in
  Alcotest.(check int) "zero retransmissions" 0 st.Rlink.retransmissions;
  Alcotest.(check int) "zero redundant deliveries" 0
    (Rlink.stats receiver).Rlink.redundant

(* ---------------- chaos stress sweep ---------------- *)

let test_chaos_sweep () =
  (* >= 50 seeded scenarios across all three protocols, >= 20% drop,
     duplication and reorder plus healing partitions — liveness and
     safety must survive every one *)
  for seed = 1 to 60 do
    match Chaos.run_seed seed with
    | Ok _ -> ()
    | Error msg ->
        Alcotest.failf "chaos seed %d (%s): %s" seed
          (Format.asprintf "%a" Chaos.pp_scenario (Chaos.generate seed))
          msg
  done

let test_chaos_replayable () =
  (* same seed: identical scenario, identical run, identical stats *)
  match (Chaos.run_seed 9, Chaos.run_seed 9) with
  | Ok a, Ok b ->
      Alcotest.(check int) "same steps" a.Chaos.steps b.Chaos.steps;
      Alcotest.(check int) "same drops" a.Chaos.net_stats.Faultnet.dropped
        b.Chaos.net_stats.Faultnet.dropped;
      Alcotest.(check int) "same retransmissions" a.Chaos.retransmissions
        b.Chaos.retransmissions
  | _ -> Alcotest.fail "seed 9 must pass"

(* The chaos reports of two fixed batches, summed field by field. Every
   field is a pure function of the seed, so a change that moves a
   delivery, a retransmission or the scheduler's ready order shows here
   as a drift. *)
let test_chaos_report_sums () =
  let sums gen =
    let acc = Array.make 10 0 in
    for seed = 1 to 30 do
      match Chaos.run (gen seed) with
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg
      | Ok r ->
          let ns = r.Chaos.net_stats in
          List.iteri
            (fun i v -> acc.(i) <- acc.(i) + v)
            [
              r.Chaos.steps; ns.Faultnet.sent; ns.Faultnet.dropped;
              ns.Faultnet.cut; ns.Faultnet.duplicated; ns.Faultnet.delayed;
              r.Chaos.data_sent; r.Chaos.retransmissions; r.Chaos.redundant;
              r.Chaos.fsyncs;
            ]
    done;
    List.combine
      [
        "steps"; "sent"; "dropped"; "cut"; "duplicated"; "delayed"; "data";
        "retransmissions"; "redundant"; "fsyncs";
      ]
      (Array.to_list acc)
  in
  let pin name gen expected =
    List.iter2
      (fun (field, got) want ->
        Alcotest.(check int) (Printf.sprintf "%s seeds 1-30: %s" name field) want got)
      (sums gen) expected
  in
  pin "link" Chaos.generate
    [ 373_451; 15_983; 4_838; 410; 2_876; 4_704; 5_213; 4_710; 1_919; 0 ];
  pin "crash" Chaos.generate_crash
    [ 975_269; 15_022; 2_536; 0; 2_316; 2_443; 4_882; 3_710; 1_504; 631 ]

let tests =
  [
    Alcotest.test_case "net: two ports, independent cursors" `Quick
      test_net_two_ports;
    Alcotest.test_case "faultnet: zero plan ≡ net (results and steps)" `Quick
      test_zero_plan_equivalence;
    Alcotest.test_case "faultnet: same seed, same delivery trace" `Quick
      test_same_seed_same_trace;
    Alcotest.test_case "faultnet: different seed, different trace" `Quick
      test_different_seed_different_trace;
    Alcotest.test_case "faultnet: bounded delay reorders" `Quick
      test_reordering_occurs;
    Alcotest.test_case "faultnet: fair burst forces delivery at drop=100"
      `Quick test_fair_burst_forces_delivery;
    Alcotest.test_case "rlink: exactly-once over lossy link" `Quick
      test_rlink_exactly_once;
    Alcotest.test_case "rlink: recovers after partition heals" `Quick
      test_rlink_partition_heals;
    Alcotest.test_case "rlink: inert over reliable link" `Quick
      test_rlink_inert_on_reliable;
    Alcotest.test_case "chaos: 60-seed protocol sweep" `Quick test_chaos_sweep;
    Alcotest.test_case "chaos: replayable from seed" `Quick
      test_chaos_replayable;
    Alcotest.test_case "chaos: report sums pinned (seeds 1-30)" `Quick
      test_chaos_report_sums;
  ]
