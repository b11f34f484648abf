(* The scenario fuzzer: every generated scenario must pass all its
   property checks. One seed = one deterministic scenario, so a failure
   message names the exact reproducer. *)

module Fuzz = Lnd_fuzz.Fuzz

let run_range ~from ~count () =
  for seed = from to from + count - 1 do
    let scenario = Fuzz.generate seed in
    match Fuzz.run scenario with
    | Ok _ -> ()
    | Error msg ->
        Alcotest.failf "fuzz failure [%s]: %s"
          (Format.asprintf "%a" Fuzz.pp_scenario scenario)
          msg
  done

(* The generator covers both targets and many adversaries within a modest
   seed range (guards against a degenerate generator). *)
let test_generator_coverage () =
  let scenarios = List.init 200 Fuzz.generate in
  let targets =
    List.sort_uniq compare
      (List.map (fun (s : Fuzz.scenario) -> s.Fuzz.target) scenarios)
  in
  let adversaries =
    List.sort_uniq compare
      (List.map (fun (s : Fuzz.scenario) -> s.Fuzz.adversary) scenarios)
  in
  Alcotest.(check int) "both targets generated" 2 (List.length targets);
  Alcotest.(check bool)
    "at least 7 adversary kinds generated" true
    (List.length adversaries >= 7)

let test_determinism () =
  (* same seed, same scenario *)
  Alcotest.(check bool)
    "generation deterministic" true
    (Fuzz.generate 12345 = Fuzz.generate 12345)

(* Per-(register, adversary) sums of operations and scheduler steps over
   seeds 0-1999: (register, adversary, scenarios, operations, steps).
   The property checks pass for any access order that keeps the
   algorithms correct; these totals move as soon as one adversary
   access is reordered (swapping the two posture writes of the sticky
   equivocating writer moves its steps by thousands), so they pin every
   named strategy's exact register accesses on both registers. *)
let sweep_pins =
  [
    ("sticky", "crash", 116, 737, 151_068);
    ("sticky", "denying-writer", 123, 897, 158_227);
    ("sticky", "equivocating-writer", 99, 726, 135_168);
    ("sticky", "false-witnesses", 115, 700, 167_556);
    ("sticky", "flipfloppers", 86, 554, 110_303);
    ("sticky", "garbage", 111, 701, 132_773);
    ("sticky", "naysayers", 103, 655, 166_419);
    ("sticky", "none", 115, 960, 167_590);
    ("sticky", "stale-replayers", 101, 612, 133_282);
    ("verifiable", "crash", 113, 973, 104_079);
    ("verifiable", "denying-writer", 109, 881, 145_925);
    ("verifiable", "equivocating-writer", 100, 724, 166_155);
    ("verifiable", "false-witnesses", 101, 843, 169_228);
    ("verifiable", "flipfloppers", 84, 705, 110_004);
    ("verifiable", "garbage", 77, 641, 98_669);
    ("verifiable", "naysayers", 91, 689, 113_384);
    ("verifiable", "none", 90, 996, 122_826);
    ("verifiable", "selective", 92, 788, 121_431);
    ("verifiable", "sign-without-write", 81, 594, 82_000);
    ("verifiable", "stale-replayers", 93, 718, 102_134);
  ]

let test_sweep_pins () =
  let sums = Hashtbl.create 32 in
  for seed = 0 to 1999 do
    let s = Fuzz.generate seed in
    match Fuzz.run s with
    | Error msg ->
        Alcotest.failf "fuzz failure [%s]: %s"
          (Format.asprintf "%a" Fuzz.pp_scenario s)
          msg
    | Ok r ->
        let key =
          ( (match s.Fuzz.target with
            | Fuzz.Sticky -> "sticky"
            | Fuzz.Verifiable -> "verifiable"),
            Fuzz.adversary_name s.Fuzz.adversary )
        in
        let c, o, st =
          Option.value (Hashtbl.find_opt sums key) ~default:(0, 0, 0)
        in
        Hashtbl.replace sums key
          (c + 1, o + r.Fuzz.operations, st + r.Fuzz.steps)
  done;
  Alcotest.(check int)
    "every (register, adversary) pair pinned" (List.length sweep_pins)
    (Hashtbl.length sums);
  List.iter
    (fun (target, adv, c, o, st) ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s %s: scenarios, operations, steps" target adv)
        (c, o, st)
        (Option.value (Hashtbl.find_opt sums (target, adv)) ~default:(0, 0, 0)))
    sweep_pins

let tests =
  [
    Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "seeds 0-39" `Quick (run_range ~from:0 ~count:40);
    Alcotest.test_case "seeds 40-79" `Quick (run_range ~from:40 ~count:40);
    Alcotest.test_case "seeds 80-119" `Slow (run_range ~from:80 ~count:40);
    Alcotest.test_case "seeds 120-159" `Slow (run_range ~from:120 ~count:40);
    Alcotest.test_case "seeds 160-199" `Slow (run_range ~from:160 ~count:40);
    Alcotest.test_case "seeds 200-239" `Slow (run_range ~from:200 ~count:40);
    Alcotest.test_case "seeds 0-1999: per-adversary ops and steps pinned"
      `Slow test_sweep_pins;
  ]
