(* Unit tests for the support substrate: universal values, PRNG, value
   domain, and Machine.cycle as both Help daemons use it. *)

open Lnd_support

let test_univ_roundtrip () =
  let u = Univ.inj Univ.int 42 in
  Alcotest.(check (option int)) "int roundtrip" (Some 42) (Univ.prj Univ.int u);
  Alcotest.(check (option string))
    "wrong key" None
    (Univ.prj Univ.string u);
  Alcotest.(check string) "key name" "int" (Univ.key_name u)

let test_univ_default () =
  let junk = Univ.inj Univ.garbage "zzz" in
  Alcotest.(check int) "defensive default" 7
    (Univ.prj_default Univ.int ~default:7 junk);
  let vs = Univ.inj Codecs.vset (Value.Set.of_list [ "a"; "b" ]) in
  Alcotest.(check bool)
    "vset roundtrip" true
    (Value.Set.equal
       (Univ.prj_default Codecs.vset ~default:Value.Set.empty vs)
       (Value.Set.of_list [ "a"; "b" ]))

let test_univ_equal () =
  let a = Univ.inj Univ.int 1 and a' = Univ.inj Univ.int 1 in
  let b = Univ.inj Univ.int 2 in
  let s = Univ.inj Univ.string "1" in
  Alcotest.(check bool) "equal same" true (Univ.equal a a');
  Alcotest.(check bool) "not equal diff payload" false (Univ.equal a b);
  Alcotest.(check bool) "not equal diff key" false (Univ.equal a s)

let test_univ_distinct_keys () =
  (* two keys with the same name are still distinct *)
  let k1 = Univ.key ~name:"k" ~pp:Format.pp_print_int ~equal:Int.equal in
  let k2 = Univ.key ~name:"k" ~pp:Format.pp_print_int ~equal:Int.equal in
  let u = Univ.inj k1 5 in
  Alcotest.(check (option int)) "own key" (Some 5) (Univ.prj k1 u);
  Alcotest.(check (option int)) "other key" None (Univ.prj k2 u)

(* Keys with the same name and payload type are still different keys: a
   value never projects under the other, the two never compare equal,
   and a defensive projection falls back to its default. *)
let test_univ_isolation () =
  let k1 = Univ.key ~name:"k" ~pp:Format.pp_print_int ~equal:Int.equal in
  let k2 = Univ.key ~name:"k" ~pp:Format.pp_print_int ~equal:Int.equal in
  let a = Univ.inj k1 5 and b = Univ.inj k2 5 in
  Alcotest.(check (option int)) "k1 value under k2" None (Univ.prj k2 a);
  Alcotest.(check (option int)) "k2 value under k1" None (Univ.prj k1 b);
  Alcotest.(check bool) "equal across keys" false (Univ.equal a b);
  Alcotest.(check bool) "equal across keys, swapped" false (Univ.equal b a);
  Alcotest.(check bool) "equal under one key" true
    (Univ.equal a (Univ.inj k1 5));
  Alcotest.(check int) "prj_default under the other key" 9
    (Univ.prj_default k2 ~default:9 a);
  Alcotest.(check int) "prj_default under its own key" 5
    (Univ.prj_default k1 ~default:9 a);
  Alcotest.(check string) "key name" "k" (Univ.key_name b);
  Alcotest.(check string) "printed" "5" (Format.asprintf "%a" Univ.pp b)

(* The SplitMix64 stream itself, not just its determinism: every seeded
   scenario, schedule and fault plan replays from it. For each seed,
   eight [int 1000] draws, then [bool], then the first output of a
   [split] and of a [derive]. *)
let test_rng_vectors () =
  List.iter
    (fun (seed, draws, coin, split, derive) ->
      let r = Rng.create seed in
      let what x = Printf.sprintf "seed %d: %s" seed x in
      Alcotest.(check (list int)) (what "int 1000") draws
        (List.init 8 (fun _ -> Rng.int r 1000));
      Alcotest.(check bool) (what "bool") coin (Rng.bool r);
      Alcotest.(check int64) (what "split") split (Rng.next64 (Rng.split r));
      Alcotest.(check int64) (what "derive") derive
        (Rng.next64 (Rng.derive r 7)))
    [
      ( 0,
        [ 823; 796; 679; 732; 747; 186; 913; 228 ],
        true,
        -3137335966175786839L,
        4775743972700868807L );
      ( 1,
        [ 657; 711; 878; 331; 857; 336; 333; 725 ],
        false,
        3159128151887096807L,
        -4092994995771171473L );
      ( 42,
        [ 605; 291; 954; 860; 250; 350; 925; 196 ],
        true,
        3299762934642087680L,
        -66385252989067990L );
    ]

(* The words 10,000 calls of [f] allocate, per call. *)
let words_per_call f =
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 10_000.

(* A draw and a defensive projection allocate nothing; an injection
   allocates its one 3-word block. *)
let test_rng_univ_words () =
  let r = Rng.create 3 in
  let u = Univ.inj Univ.int 4 and g = Univ.inj Univ.garbage "x" in
  let sink = ref 0 in
  let check what limit f =
    let w = words_per_call f in
    if w > limit then Alcotest.failf "%s: %.2f words per call (> %g)" what w limit
  in
  check "Rng.int" 0.01 (fun () -> sink := !sink + Rng.int r 1000);
  check "Rng.bool" 0.01 (fun () -> if Rng.bool r then incr sink);
  check "Univ.prj_default" 0.01 (fun () ->
      sink := !sink + Univ.prj_default Univ.int ~default:0 u
              + Univ.prj_default Univ.int ~default:0 g);
  check "Univ.inj" 3.01 (fun () ->
      sink := !sink + Univ.prj_default Univ.int ~default:0 (Univ.inj Univ.int !sink))

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < 17)
  done

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let a = Rng.split r and b = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let r = Rng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved"
    (Array.init 50 (fun i -> i))
    sorted

let test_value_set () =
  let s = Value.Set.of_list [ "b"; "a"; "a" ] in
  Alcotest.(check int) "dedup" 2 (Value.Set.cardinal s);
  Alcotest.(check bool) "mem" true (Value.Set.mem "a" s);
  Alcotest.(check bool)
    "opt equal" true
    (Value.equal_opt (Some "x") (Some "x"));
  Alcotest.(check bool) "opt not equal" false (Value.equal_opt (Some "x") None)

(* ---------------- Prebuilt idle Help rounds ---------------- *)

(* Drives [help] with Machine.advance over registers where nobody asks:
   1,000 idle rounds must each come back to the same first node,
   allocating nothing per read (a round built afresh allocates about
   50 words). Then [bump] raises one asker's counter: the next round must
   make exactly the writes [answered] accepts and end in a new idle round,
   itself stable. *)
let check_idle_round ~what ~help ~read ~bump ~answered =
  let reads = ref 0 and writes = ref [] in
  let read r =
    incr reads;
    read r
  in
  let write r u = writes := (r, u) :: !writes in
  let round p =
    match Machine.advance ~read ~write ~note:ignore p with
    | Machine.Yield k -> k ()
    | _ -> Alcotest.failf "%s: Help stopped short of a yield" what
  in
  let first = round help in
  let reads0 = !reads and words0 = Gc.minor_words () in
  for i = 1 to 1000 do
    if round first != first then
      Alcotest.failf "%s: idle round %d built a new node" what i
  done;
  let words = Gc.minor_words () -. words0 in
  let per_read = words /. float_of_int (!reads - reads0) in
  if per_read > 0.1 then
    Alcotest.failf "%s: %.2f words allocated per idle read" what per_read;
  if !writes <> [] then Alcotest.failf "%s: an idle round wrote" what;
  bump ();
  let next = round first in
  if not (answered (List.rev !writes)) then
    Alcotest.failf "%s: the asker was not answered as expected" what;
  if next == first then
    Alcotest.failf "%s: the round after serving is the old idle round" what;
  if round next != next then
    Alcotest.failf "%s: the new idle round is not stable" what

let n = 4
let q = Quorum.make ~n ~f:1
let counters = Array.make n (Univ.inj Codecs.counter 0)

(* p1's daemon answers p2 through R_{1,2}, stamped with p2's counter. *)
let bump () = counters.(2) <- Univ.inj Codecs.counter 1

let test_sticky_idle_round () =
  let module S = Lnd_sticky.Sticky_core in
  Array.fill counters 0 n (Univ.inj Codecs.counter 0);
  let set = S.enc_vopt (Some "a") and stamped = S.enc_stamped None 0 in
  check_idle_round ~what:"sticky" ~help:(S.help_prog ~n ~q ~pid:1) ~bump
    ~read:(function
      | S.E _ | S.R _ -> set | S.C k -> counters.(k) | S.Rjk _ -> stamped)
    ~answered:(function
      | [ (S.Rjk (1, 2), u) ] ->
          Univ.prj Codecs.vopt_stamped u = Some (Some "a", 1)
      | _ -> false)

let test_verifiable_idle_round () =
  let module V = Lnd_verifiable.Verifiable_core in
  Array.fill counters 0 n (Univ.inj Codecs.counter 0);
  let a = Value.Set.singleton "a" in
  let set = V.enc_vset a and stamped = V.enc_stamped Value.Set.empty 0 in
  check_idle_round ~what:"verifiable" ~help:(V.help_prog ~n ~q ~pid:1) ~bump
    ~read:(function
      | V.Rstar -> V.enc_value "a" | V.R _ -> set | V.C k -> counters.(k)
      | V.Rjk _ -> stamped)
    ~answered:(function
      | [ (V.Rjk (1, 2), u) ] -> (
          match Univ.prj Codecs.vset_stamped u with
          | Some (s, 1) -> Value.Set.equal s a
          | _ -> false)
      | _ -> false)

let tests =
  [
    Alcotest.test_case "univ roundtrip" `Quick test_univ_roundtrip;
    Alcotest.test_case "univ defensive default" `Quick test_univ_default;
    Alcotest.test_case "univ equality" `Quick test_univ_equal;
    Alcotest.test_case "univ distinct keys" `Quick test_univ_distinct_keys;
    Alcotest.test_case "univ isolation across same-named keys" `Quick
      test_univ_isolation;
    Alcotest.test_case "rng output vectors pinned" `Quick test_rng_vectors;
    Alcotest.test_case "rng draws and univ projections allocate nothing"
      `Quick test_rng_univ_words;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle is a permutation" `Quick
      test_rng_shuffle_permutation;
    Alcotest.test_case "value sets" `Quick test_value_set;
    Alcotest.test_case
      "sticky Help: an idle round is built once, until an asker is served"
      `Quick test_sticky_idle_round;
    Alcotest.test_case
      "verifiable Help: an idle round is built once, until an asker is served"
      `Quick test_verifiable_idle_round;
  ]
