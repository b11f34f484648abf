(* lie_not_deny — public facade.

   Reproduction of Hu & Toueg, "You can lie but not deny: SWMR registers
   with signature properties in systems with Byzantine processes"
   (PODC 2025). See README.md for a tour and DESIGN.md for the system
   inventory. *)

(* Substrate *)
module Value = Lnd_support.Value
module Univ = Lnd_support.Univ
module Codecs = Lnd_support.Codecs
module Rng = Lnd_support.Rng
module Quorum = Lnd_support.Quorum
module Register = Lnd_shm.Register
module Space = Lnd_shm.Space
module Sched = Lnd_runtime.Sched
module Policy = Lnd_runtime.Policy
module Cell = Lnd_runtime.Cell
module Explore = Lnd_runtime.Explore

(* Histories and correctness checking *)
module History = Lnd_history.History
module Spec = Lnd_history.Spec
module Byzlin = Lnd_history.Byzlin

(* The paper's contributions *)
module Verifiable = Lnd_verifiable.Verifiable
module Sticky = Lnd_sticky.Sticky
module Impossibility = Lnd_fuzz.Impossibility

(* Adversaries *)
module Byz_verifiable = Lnd_byz.Byz_verifiable
module Byz_sticky = Lnd_byz.Byz_sticky

(* Baselines and derived systems *)
module Sigoracle = Lnd_crypto.Sigoracle
module Sig_verifiable = Lnd_sigbase.Sig_verifiable
module Net = Lnd_msgpass.Net
module Auth_broadcast = Lnd_msgpass.Auth_broadcast
module Regemu = Lnd_msgpass.Regemu
module Broadcast = Lnd_broadcast.Broadcast
module Reliable_broadcast = Lnd_broadcast.Reliable
module Bracha = Lnd_msgpass.Bracha
module Snapshot = Lnd_snapshot.Snapshot
module Asset = Lnd_asset.Asset
module Fuzz = Lnd_fuzz.Fuzz
module Monitors = Lnd_history.Monitors

(* Crash-recovery: durability and liveness diagnosis *)
module Disk = Lnd_durable.Disk
module Wal = Lnd_durable.Wal
module Watchdog = Lnd_runtime.Watchdog
module Chaos = Lnd_fuzz.Chaos

(* Observability: causal op-tracing and metrics *)
module Obs = Lnd_obs.Obs
module Trace = Lnd_obs.Trace
module Metrics = Lnd_obs.Metrics
module Profile = Lnd_obs.Profile
module Trace_replay = Lnd_history.Trace_replay

(* Accountability: forensic Byzantine blame attribution *)
module Audit = Lnd_audit.Audit

(* Model checking & adversary synthesis *)
module Byz_script = Lnd_byz.Byz_script
module Mcheck = Lnd_fuzz.Mcheck
module Scenario = Lnd_fuzz.Scenario
module Synth = Lnd_fuzz.Synth

(* Parallel backend & differential conformance *)
module Diff = Lnd_parallel.Diff
module Parallel = Lnd_parallel.Parallel
module Domains = Lnd_runtime.Domains
