(** Adversary synthesis: guided search over schedules × Byzantine
    scripts.

    Where {!Mcheck.explore} checks every schedule of one fixed
    adversary, the synthesiser also searches the adversary space: a
    candidate is a batch of schedule seeds plus one
    {!Lnd_byz.Byz_script} genome per scripted pid, its fitness is
    derived from the run's event trace (correct reads driven to ⊥,
    then worst READ latency), and hill-climbing mutates one seed or
    one gene per round. The first run whose check raises becomes a
    {!Scenario.t} expecting a violation. *)

type outcome = {
  found : Scenario.t option;  (** the violating scenario, if any *)
  evals : int;  (** schedules executed *)
  rounds_used : int;
  best_fitness : int;
}

val fitness_of_events : Lnd_obs.Obs.event list -> int
(** [1000 ×] (completed correct READs returning ⊥ / TESTs returning 0)
    [+] the worst READ span latency in steps. Exposed for tests. *)

val hillclimb :
  ?rounds:int ->
  ?batch:int ->
  ?max_steps:int ->
  seed:int ->
  name:string ->
  Mcheck.config ->
  outcome
(** Deterministic in [seed]. [base.scripts] is the starting genome;
    exploration runs with [audit = true] so traces (and hence fitness)
    are available. Defaults: 50 rounds of 6 seeds, 20k-step runs.
    Raises [Invalid_argument] unless [rounds] and [batch] are at least
    1: a search that evaluates nothing finds nothing. *)
