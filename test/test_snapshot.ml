(* The signed snapshot object on verifiable registers (Section 1.1
   application). *)

open Lnd_support
open Lnd_shm
open Lnd_runtime
module Snap = Lnd_snapshot.Snapshot

type sys = { sched : Sched.t; snap : Snap.t; n : int }

let mk ?(seed = 3) ~n ~f ~byzantine () : sys =
  let space = Space.create ~n in
  let sched = Sched.create ~space ~choose:(Policy.random ~seed) in
  let snap = Snap.create space sched ~n ~f ~byzantine () in
  { sched; snap; n }

let run_ok ?(max_steps = 8_000_000) s =
  match Sched.run ~max_steps s.sched with
  | Sched.Quiescent ->
      (match Sched.failures s.sched with
      | [] -> ()
      | ((f : Sched.fiber), e) :: _ ->
          Alcotest.failf "fiber %s failed: %s" f.Sched.fname
            (Printexc.to_string e))
  | Sched.Budget_exhausted -> Alcotest.fail "step budget exhausted"
  | Sched.Condition_met -> ()

let varray = Alcotest.(array string)

(* All processes update, then a scan sees every signed value. *)
let test_update_scan () =
  let n = 4 and f = 1 in
  let s = mk ~n ~f ~byzantine:[] () in
  for pid = 0 to n - 1 do
    ignore
      (Sched.spawn s.sched ~pid ~name:(Printf.sprintf "u%d" pid) (fun () ->
           Snap.update s.snap ~pid (Printf.sprintf "seg%d" pid)))
  done;
  run_ok s;
  let view = ref [||] in
  ignore
    (Sched.spawn s.sched ~pid:1 ~name:"scan" (fun () ->
         view := Snap.scan s.snap ~pid:1));
  run_ok s;
  Alcotest.check varray "full view"
    [| "seg0"; "seg1"; "seg2"; "seg3" |]
    !view

(* Scan before any update returns all-v0. *)
let test_empty_scan () =
  let s = mk ~n:4 ~f:1 ~byzantine:[] () in
  let view = ref [||] in
  ignore
    (Sched.spawn s.sched ~pid:2 ~name:"scan" (fun () ->
         view := Snap.scan s.snap ~pid:2));
  run_ok s;
  Alcotest.check varray "empty view"
    (Array.make 4 Value.v0)
    !view

(* UNFORGEABILITY: a Byzantine segment owner writes values without
   signing them; scans never report them. *)
let test_unsigned_invisible () =
  let n = 4 and f = 1 in
  let s = mk ~n ~f ~byzantine:[ 3 ] () in
  (* Byzantine p3 writes into its segment's R* but never signs *)
  ignore
    (Sched.spawn s.sched ~pid:3 ~name:"byz" (fun () ->
         let seg = s.snap.Snap.segments.(3) in
         Cell.write
           (seg.Snap.seg_regs.Lnd_verifiable.Verifiable.cell
              Lnd_verifiable.Verifiable_core.Rstar)
           (Univ.inj Codecs.value "unsigned")));
  ignore
    (Sched.spawn s.sched ~pid:0 ~name:"u0" (fun () ->
         Snap.update s.snap ~pid:0 "real"));
  run_ok s;
  let view = ref [||] in
  ignore
    (Sched.spawn s.sched ~pid:1 ~name:"scan" (fun () ->
         view := Snap.scan s.snap ~pid:1));
  run_ok s;
  Alcotest.(check string) "p0 segment visible" "real" (!view).(0);
  Alcotest.(check string) "unsigned segment reads v0" Value.v0 (!view).(3)

(* Sequential scans are monotone per segment once writers are quiet. *)
let test_scan_stability () =
  let n = 4 and f = 1 in
  let s = mk ~seed:9 ~n ~f ~byzantine:[] () in
  for pid = 0 to 1 do
    ignore
      (Sched.spawn s.sched ~pid ~name:(Printf.sprintf "u%d" pid) (fun () ->
           Snap.update s.snap ~pid (Printf.sprintf "v%d" pid)))
  done;
  run_ok s;
  let v1 = ref [||] and v2 = ref [||] in
  ignore
    (Sched.spawn s.sched ~pid:2 ~name:"scan2" (fun () ->
         v1 := Snap.scan s.snap ~pid:2));
  run_ok s;
  ignore
    (Sched.spawn s.sched ~pid:3 ~name:"scan3" (fun () ->
         v2 := Snap.scan s.snap ~pid:3));
  run_ok s;
  Alcotest.check varray "stable across scanners" !v1 !v2

(* Concurrent updates and scans terminate and scans only contain signed
   values. *)
let test_concurrent_updates ~seed () =
  let n = 4 and f = 1 in
  let s = mk ~seed ~n ~f ~byzantine:[] () in
  let views = ref [] in
  for pid = 0 to n - 1 do
    ignore
      (Sched.spawn s.sched ~pid ~name:(Printf.sprintf "c%d" pid) (fun () ->
           Snap.update s.snap ~pid (Printf.sprintf "x%d" pid);
           let v = Snap.scan s.snap ~pid in
           views := v :: !views))
  done;
  run_ok s;
  List.iter
    (fun view ->
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            "segment is v0 or owner's signed value" true
            (v = Value.v0 || v = Printf.sprintf "x%d" i))
        view)
    !views

let tests =
  [
    Alcotest.test_case "update then scan" `Quick test_update_scan;
    Alcotest.test_case "empty scan" `Quick test_empty_scan;
    Alcotest.test_case "unsigned values invisible" `Quick
      test_unsigned_invisible;
    Alcotest.test_case "scan stability" `Quick test_scan_stability;
    Alcotest.test_case "concurrent updates (seed 41)" `Quick
      (test_concurrent_updates ~seed:41);
    Alcotest.test_case "concurrent updates (seed 42)" `Quick
      (test_concurrent_updates ~seed:42);
  ]
