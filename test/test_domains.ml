(* The domains driver's wake-on-write loop (lib/runtime/domains.ml): a run
   that can never progress must end in an [Error] naming its parked
   machines, quickly, instead of burning its step budget; and a run whose
   processes hand off through register writes must complete without lost
   wakeups and without spinning through idle re-polls. *)

open Lnd_support
module Domains = Lnd_runtime.Domains
module Dcell = Domains.Dcell

let wall () =
  (Unix.gettimeofday ()
  [@lnd.allow
    "determinism: the stall test bounds real time-to-Error; no verdict \
     depends on the value"])

let int_cell name = Dcell.make ~name ~init:(Univ.inj Univ.int 0)

let get r =
  Machine.(
    let* u = read r in
    ret (Univ.prj_default Univ.int ~default:(-1) u))

(* The cores' wait-loop shape: one read-only poll pass, then a yield. *)
let rec await_value r x =
  Machine.(
    let* y = get r in
    if y = x then ret () else let* () = yield in await_value r x)

let rec idle_poll r =
  Machine.(
    let* _ = read r in
    let* () = yield in
    idle_poll r)

type reg = A | B

let test_stall_is_error () =
  let a = int_cell "A" and b = int_cell "B" in
  let cell = function A -> a | B -> b in
  let d = Domains.create () in
  let idle pid =
    Domains.daemon ~label:(Printf.sprintf "idle%d" pid) ~cell (idle_poll B)
  in
  Domains.add_process d ~pid:0 ~daemons:[ idle 0 ]
    [
      Domains.job ~cell
        ~finish:(fun ~inv:_ ~ret:_ () -> ())
        (fun () -> await_value A 1);
    ];
  Domains.add_process d ~pid:1 ~daemons:[ idle 1 ] [];
  let t0 = wall () in
  let r = Domains.run d in
  let dt = wall () -. t0 in
  (match r with
  | Ok steps -> Alcotest.failf "a run nobody can finish returned Ok %d" steps
  | Error m ->
      List.iter
        (fun name ->
          if not (Test_obs.contains ~sub:name m) then
            Alcotest.failf "stall error does not name %S: %s" name m)
        [ "stalled"; "p0-op (pid 0)"; "idle0 (pid 0)"; "idle1 (pid 1)" ]);
  if dt > 1.0 then Alcotest.failf "stall took %.2f s to report" dt

(* Hand-off k (1..handoffs) writes k: p0 writes the odd ones into A
   after seeing k-1 in B, p1 the even ones into B after seeing k-1 in A. *)
let handoffs = 1_000

let test_ping_pong () =
  let a = int_cell "A" and b = int_cell "B" in
  let cell = function A -> a | B -> b in
  let side ~mine ~theirs ~first =
    let rec go k =
      Machine.(
        if k > handoffs then ret ()
        else
          let* () = await_value theirs (k - 1) in
          let* () = write mine (Univ.inj Univ.int k) in
          go (k + 2))
    in
    Domains.job ~cell ~finish:(fun ~inv:_ ~ret:_ () -> ()) (fun () -> go first)
  in
  let d = Domains.create () in
  Domains.add_process d ~pid:0 [ side ~mine:A ~theirs:B ~first:1 ];
  Domains.add_process d ~pid:1 [ side ~mine:B ~theirs:A ~first:2 ];
  match Domains.run d with
  | Error m -> Alcotest.failf "ping-pong failed: %s" m
  | Ok steps ->
      Alcotest.(check int) "last hand-off landed" handoffs
        (Univ.prj_default Univ.int ~default:(-1) (Dcell.read b));
      if steps > 20 * handoffs then
        Alcotest.failf "%d machine steps for %d hand-offs (> 20 each)" steps
          handoffs

let tests =
  [
    Alcotest.test_case
      "a run with no writer left is an Error naming parked machines" `Quick
      test_stall_is_error;
    Alcotest.test_case "1,000 ping-pong hand-offs: no lost wakeup, no spinning"
      `Quick test_ping_pong;
  ]
