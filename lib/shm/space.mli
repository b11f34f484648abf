(** The register space of one simulated system.

    Allocation records ownership; {!read} and {!write} enforce the
    model's only restriction on Byzantine processes: nobody — Byzantine
    or not — can access the write port of a register it does not own, and
    SWSR registers are readable only by their designated reader. Access
    counters feed the benchmark cost tables. Each individual access is
    emitted as an [Lnd_obs.Obs.Shm_access] event while a sink is
    installed: that stream is the one record of register accesses, read
    by the auditor ([Lnd_audit.Audit]) and the trace exporter
    ([Lnd_obs.Trace]). *)

open Lnd_support

exception Permission_violation of { pid : int; reg : string; op : string }

type t

val create : n:int -> t
(** A space for processes [0 .. n-1]. *)

val n : t -> int

val alloc :
  t ->
  name:string ->
  owner:int ->
  ?single_reader:int ->
  init:Univ.t ->
  unit ->
  Register.t
(** Allocate a register. With [single_reader] it is SWSR; otherwise
    SWMR. *)

val read : t -> by:int -> Register.t -> Univ.t
(** Raises {!Permission_violation} if [by] may not read. *)

val write : t -> by:int -> Register.t -> Univ.t -> unit
(** Raises {!Permission_violation} if [by] is not the owner. *)

val unread : t -> by:int -> unit
(** Undo the latest {!read} by [by]: its counters go back by one. For
    rewinding a scheduler ([Lnd_runtime.Sched.rewind]), newest access
    first. *)

val unwrite : t -> by:int -> Register.t -> old:Univ.t -> unit
(** Undo the latest {!write} of the register by [by]: its counters go
    back by one and the register gets back the value [old] it held
    before. *)

val owned : t -> pid:int -> Register.t list
(** Registers owned by [pid]; the Theorem 23 "reset" adversary rewrites
    each of these back to its initial value through ordinary writes. *)

(** {2 Access accounting} *)

type stats = { reads : int; writes : int }

val stats : t -> stats
val stats_of_pid : t -> int -> stats
val diff : before:stats -> after:stats -> stats
val pp_stats : Format.formatter -> stats -> unit
