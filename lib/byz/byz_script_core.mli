(** Byzantine adversaries as pure state machines.

    {!responder} is the one Byzantine responder loop; the genome
    interpreters (see {!Byz_script} for the gene layout) and every named
    strategy of [Byz_sticky] / [Byz_verifiable] parameterise it.
    The workload plan ([Lnd_parallel.Diff]) runs any of them on the
    simulator; [Lnd_parallel] runs the same genomes on OCaml 5 domains,
    so a scripted adversary misbehaves identically — access for access —
    on both backends. *)

open Lnd_support

val gene : int array -> int -> int
(** Total decoding: gene [i] of the (cycling) genome, reduced mod 3.
    0 = silent/deny, 1 = claim the scripted value, 2 = honest. *)

val responder :
  n:int -> pid:int -> counter:(int -> 'reg) -> mailbox:(int -> 'reg) ->
  ?asks:(int -> bool) -> ?posture:('s -> ('reg, 's) Machine.prog) ->
  reply:('s -> asker:int -> round:int -> ('reg, 's * Univ.t) Machine.prog) ->
  's -> ('reg, unit) Machine.prog
(** [responder ~n ~pid ~counter ~mailbox ~reply s0] runs forever from
    strategy state [s0]. Each round it first runs [posture] (default:
    nothing), the strategy's side effects on the registers [pid] owns;
    then, for each asker [k = 1 .. n-1] with [k <> pid] and [asks k]
    (default: all), in ascending order, it reads [counter k] (C_k) and,
    on a round it has not answered yet, writes the content [reply]
    returns to [mailbox k] (R_{pid,k}). A round that answered nobody
    ends in a yield. *)

val sticky_prog :
  n:int -> pid:int -> genome:int array -> value:Value.t ->
  (Lnd_sticky.Sticky_core.reg, unit) Machine.prog
(** The scripted responder against the sticky layout; never returns. *)

val verifiable_prog :
  n:int -> pid:int -> genome:int array -> value:Value.t ->
  (Lnd_verifiable.Verifiable_core.reg, unit) Machine.prog
(** The scripted responder against the verifiable layout; never
    returns. *)
