(* The appendix observations (28/30/92/93/94) as the auditor's register
   rules: crafted writes fed to [Audit.observe] must fire exactly the
   matching rule, and real adversarial executions under an auditor sink
   must accuse the Byzantine pid and nobody else. *)

open Lnd_support
module Audit = Lnd_audit.Audit
module Obs = Lnd_obs.Obs
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Diff = Lnd_parallel.Diff

(* ---- crafted writes exercise each rule itself ---- *)

(* The (pid, rule) accusations that [pid]'s writes, in order, draw. *)
let rules ?(pid = 1) writes =
  let au = Audit.create ~q:(Quorum.make_relaxed ~n:4 ~f:1) () in
  List.iteri
    (fun at (reg, value) ->
      Audit.observe au
        { Obs.at; pid; span = 0;
          kind = Obs.Shm_access { access = `Write; reg; value } })
    writes;
  List.map
    (fun (a : Audit.accusation) -> (a.Audit.acc_pid, a.Audit.acc_rule))
    (Audit.finalize au).Audit.rp_accusations

let fired = Alcotest.(list (pair int string))
let holds what writes = Alcotest.check fired what [] (rules writes)
let fires what rule writes = Alcotest.check fired what [ (1, rule) ] (rules writes)

let ctr c = Univ.inj Codecs.counter c
let vset l = Univ.inj Codecs.vset (Value.Set.of_list l)
let vopt v = Univ.inj Codecs.value_opt v
let row_set l c = Univ.inj Codecs.vset_stamped (Value.Set.of_list l, c)
let row_opt v c = Univ.inj Codecs.vopt_stamped (v, c)

(* Observations 28 and 94. *)
let test_counter_checker () =
  holds "monotone ok" [ ("C_1", ctr 1); ("C_1", ctr 2) ];
  fires "decrease flagged" "counter-regression" [ ("C_1", ctr 5); ("C_1", ctr 3) ];
  Alcotest.check fired "charged to the writer" [ (3, "counter-regression") ]
    (rules ~pid:3 [ ("C_1", ctr 5); ("C_1", ctr 3) ])

(* Observation 30. *)
let test_witness_checker () =
  holds "grow ok" [ ("R_2", vset [ "a" ]); ("R_2", vset [ "a"; "b" ]) ];
  fires "drop flagged" "witness-retraction"
    [ ("R_2", vset [ "a"; "b" ]); ("R_2", vset [ "b" ]) ];
  Alcotest.(check bool) "mailboxes are not witness sets" false
    (List.mem (1, "witness-retraction")
       (rules [ ("R_{1,2}", vset [ "a"; "b" ]); ("R_{1,2}", vset [ "b" ]) ]))

(* Observations 92 and 93. *)
let test_sticky_checker () =
  holds "stable ok"
    [ ("E_1", vopt (Some "x")); ("E_1", vopt (Some "x")); ("R_1", vopt (Some "x")) ];
  fires "flip flagged" "sticky-overwrite"
    [ ("E_1", vopt (Some "x")); ("E_1", vopt (Some "y")) ]

(* A correct helper answers each round of C_k once, with a fresh stamp. *)
let test_stamp_checker () =
  holds "increase ok" [ ("R_{1,2}", row_set [] 1); ("R_{1,2}", row_set [] 2) ];
  fires "repeat flagged" "stale-stamp"
    [ ("R_{1,2}", row_set [] 2); ("R_{1,2}", row_set [] 2) ]

(* ---- the rules the retired trace checker never had ---- *)

let test_sticky_retraction () =
  holds "⊥ before the first value"
    [ ("E_1", vopt None); ("E_1", vopt (Some "x")); ("E_1", vopt (Some "x")) ];
  fires "back to ⊥ flagged" "sticky-overwrite"
    [ ("E_1", vopt (Some "x")); ("E_1", vopt None) ]

let test_mailbox_witness_set () =
  holds "a growing stamped set"
    [ ("R_{1,2}", row_set [ "a" ] 1); ("R_{1,2}", row_set [ "a"; "b" ] 2) ];
  fires "a shrinking stamped set" "mailbox-retraction"
    [ ("R_{1,2}", row_set [ "a"; "b" ] 1); ("R_{1,2}", row_set [ "b" ] 2) ]

let test_mailbox_sticky_value () =
  holds "⊥, then one value kept"
    [ ("R_{1,2}", row_opt None 1); ("R_{1,2}", row_opt (Some "x") 2);
      ("R_{1,2}", row_opt (Some "x") 3) ];
  fires "a changed stamped value" "mailbox-retraction"
    [ ("R_{1,2}", row_opt (Some "x") 1); ("R_{1,2}", row_opt (Some "y") 2) ]

let test_ill_typed_counter () =
  holds "a counter in C_k" [ ("C_1", ctr 1) ];
  fires "a witness set in C_k" "ill-typed-write" [ ("C_1", vset [ "a" ]) ]

let test_ill_typed_mailbox () =
  holds "a stamped reply in R_{j,k}" [ ("R_{1,2}", row_set [ "a" ] 1) ];
  fires "an unstamped set in R_{j,k}" "ill-typed-write"
    [ ("R_{1,2}", vset [ "a" ]) ]

(* ---- real adversarial executions accuse only the liar ---- *)

(* Run [body] under an auditor sink; the pids its report accuses. *)
let accused_in ~q body =
  let au = Audit.create ~q () in
  Obs.install (Audit.sink au);
  Fun.protect ~finally:Obs.uninstall (fun () ->
      match body () with
      | Sched.Quiescent -> ()
      | _ -> Alcotest.fail "stuck");
  Audit.accused (Audit.finalize au)

let test_verifiable_run_invariants ~seed () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  Alcotest.(check (list int)) "only the flip-flopping colluder" [ 3 ]
    (accused_in ~q (fun () ->
         let t =
           Diff.session (Policy.random ~seed)
             (Diff.verifiable_plan q ~byzantine:[ 3 ]
                ~scripts:[ (3, Lnd_byz.Byz_script.Flipflop "v") ])
         in
         t.client ~pid:0 ~name:"w" [ Diff.write_verifiable "v"; Diff.sign "v" ];
         for pid = 1 to 2 do
           t.client ~pid
             ~name:(Printf.sprintf "r%d" pid)
             [ Diff.verify q ~pid "v" ]
         done;
         Sched.run ~max_steps:2_000_000 t.sched))

let test_sticky_run_invariants ~seed () =
  let n = 4 and f = 1 in
  let q = Quorum.make_relaxed ~n ~f in
  Alcotest.(check (list int)) "only the equivocating writer" [ 0 ]
    (accused_in ~q (fun () ->
         let t =
           Diff.session (Policy.random ~seed)
             (Diff.sticky_plan q ~byzantine:[ 0 ]
                ~scripts:
                  [
                    ( 0,
                      Lnd_byz.Byz_script.Equivocating_writer
                        { va = "a"; vb = "b"; flip_after = 2 } );
                  ])
         in
         for pid = 1 to 3 do
           t.client ~pid
             ~name:(Printf.sprintf "r%d" pid)
             [ Diff.read_sticky q ~pid ]
         done;
         Sched.run ~max_steps:2_000_000 t.sched))

let tests =
  [
    Alcotest.test_case "checker: counters" `Quick test_counter_checker;
    Alcotest.test_case "checker: witness sets" `Quick test_witness_checker;
    Alcotest.test_case "checker: sticky write-once" `Quick
      test_sticky_checker;
    Alcotest.test_case "checker: mailbox stamps" `Quick test_stamp_checker;
    Alcotest.test_case "rule: sticky-overwrite on a retraction to ⊥" `Quick
      test_sticky_retraction;
    Alcotest.test_case "rule: mailbox-retraction of a witness set" `Quick
      test_mailbox_witness_set;
    Alcotest.test_case "rule: mailbox-retraction of a sticky value" `Quick
      test_mailbox_sticky_value;
    Alcotest.test_case "rule: ill-typed-write of a counter" `Quick
      test_ill_typed_counter;
    Alcotest.test_case "rule: ill-typed-write of a mailbox row" `Quick
      test_ill_typed_mailbox;
    Alcotest.test_case "verifiable run satisfies Obs 28/30 (seed 1)" `Quick
      (test_verifiable_run_invariants ~seed:1);
    Alcotest.test_case "verifiable run satisfies Obs 28/30 (seed 2)" `Quick
      (test_verifiable_run_invariants ~seed:2);
    Alcotest.test_case "sticky run satisfies Obs 92/93/94 (seed 3)" `Quick
      (test_sticky_run_invariants ~seed:3);
    Alcotest.test_case "sticky run satisfies Obs 92/93/94 (seed 4)" `Quick
      (test_sticky_run_invariants ~seed:4);
  ]
