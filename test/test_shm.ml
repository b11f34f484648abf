(* Unit tests for the shared-memory model: ownership and readability
   enforcement — the model's only restriction on Byzantine processes. *)

open Lnd_support
open Lnd_shm

let mk () = Space.create ~n:4

let test_read_write () =
  let sp = mk () in
  let r = Space.alloc sp ~name:"r" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  Alcotest.(check (option int))
    "initial" (Some 0)
    (Univ.prj Univ.int (Space.read sp ~by:1 r));
  Space.write sp ~by:0 r (Univ.inj Univ.int 5);
  Alcotest.(check (option int))
    "after write" (Some 5)
    (Univ.prj Univ.int (Space.read sp ~by:2 r))

let test_write_port_enforced () =
  let sp = mk () in
  let r = Space.alloc sp ~name:"r" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  Alcotest.check_raises "non-owner write rejected"
    (Space.Permission_violation { pid = 1; reg = "r"; op = "write" })
    (fun () -> Space.write sp ~by:1 r (Univ.inj Univ.int 9))

let test_swsr_readability () =
  let sp = mk () in
  let r =
    Space.alloc sp ~name:"r01" ~owner:0 ~single_reader:1
      ~init:(Univ.inj Univ.int 0) ()
  in
  (* designated reader and owner may read *)
  ignore (Space.read sp ~by:1 r);
  ignore (Space.read sp ~by:0 r);
  Alcotest.check_raises "other reader rejected"
    (Space.Permission_violation { pid = 2; reg = "r01"; op = "read" })
    (fun () -> ignore (Space.read sp ~by:2 r))

let test_counters () =
  let sp = mk () in
  let r = Space.alloc sp ~name:"r" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  let before = Space.stats sp in
  ignore (Space.read sp ~by:1 r);
  ignore (Space.read sp ~by:2 r);
  Space.write sp ~by:0 r (Univ.inj Univ.int 1);
  let d = Space.diff ~before ~after:(Space.stats sp) in
  Alcotest.(check int) "reads counted" 2 d.Space.reads;
  Alcotest.(check int) "writes counted" 1 d.Space.writes;
  Alcotest.(check int) "per-pid reads" 1 (Space.stats_of_pid sp 1).Space.reads

let test_owned () =
  let sp = mk () in
  let _a = Space.alloc sp ~name:"a" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  let _b = Space.alloc sp ~name:"b" ~owner:1 ~init:(Univ.inj Univ.int 0) () in
  let _c = Space.alloc sp ~name:"c" ~owner:0 ~init:(Univ.inj Univ.int 0) () in
  Alcotest.(check int) "owned by 0" 2 (List.length (Space.owned sp ~pid:0));
  Alcotest.(check int) "owned by 1" 1 (List.length (Space.owned sp ~pid:1))

let test_bad_owner () =
  let sp = mk () in
  Alcotest.check_raises "bad owner" (Invalid_argument "Space.alloc: bad owner")
    (fun () ->
      ignore (Space.alloc sp ~name:"x" ~owner:9 ~init:(Univ.inj Univ.int 0) ()))

let tests =
  [
    Alcotest.test_case "read/write" `Quick test_read_write;
    Alcotest.test_case "write port enforced" `Quick test_write_port_enforced;
    Alcotest.test_case "SWSR readability" `Quick test_swsr_readability;
    Alcotest.test_case "access counters" `Quick test_counters;
    Alcotest.test_case "owned registers" `Quick test_owned;
    Alcotest.test_case "bad owner rejected" `Quick test_bad_owner;
  ]
