(** The register space of one simulated system.

    Allocation records ownership; {!read} and {!write} enforce the
    model's only restriction on Byzantine processes: nobody — Byzantine
    or not — can access the write port of a register it does not own, and
    SWSR registers are readable only by their designated reader. Access
    counters feed the benchmark cost tables. *)

open Lnd_support

exception Permission_violation of { pid : int; reg : string; op : string }

(** One recorded access, for the optional execution trace. *)
type access = {
  acc_seq : int; (** global access sequence number *)
  acc_pid : int;
  acc_kind : [ `Read | `Write ];
  acc_reg : string;
  acc_value : Univ.t; (** value read, or value written *)
}

val pp_access : Format.formatter -> access -> unit

type t

val create : n:int -> t
(** A space for processes [0 .. n-1]. *)

val n : t -> int

val set_trace : t -> capacity:int -> unit
(** Record the last [capacity] accesses (off by default). *)

val trace : t -> access list
(** The recorded accesses, oldest first; empty when tracing is off. *)

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

val unread : t -> by:int -> Register.t -> unit
(** Undo the latest {!read} of the register by [by]: its counters and
    the access trace go back by one. For rewinding a scheduler
    ([Lnd_runtime.Sched.rewind]), newest access first. *)

val unwrite : t -> by:int -> Register.t -> old:Univ.t -> unit
(** Undo the latest {!write} of the register by [by], putting back the
    value [old] it held before. A trace ring that wrapped since keeps
    its overwritten entries lost. *)

val owned : t -> pid:int -> Register.t list
(** Registers owned by [pid]; the Theorem 23 "reset" adversary rewrites
    each of these back to its initial value through ordinary writes. *)

(** {2 Access accounting} *)

type stats = { reads : int; writes : int }

val stats : t -> stats
val stats_of_pid : t -> int -> stats
val diff : before:stats -> after:stats -> stats
val pp_stats : Format.formatter -> stats -> unit
