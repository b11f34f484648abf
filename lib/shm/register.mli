(** A shared register cell.

    Registers are single-writer: only [owner] may write. Readability is
    either [Any_reader] (SWMR) or [Single_reader pid] (SWSR, as used for
    the R_jk mailbox registers of Algorithms 1 and 2). The model makes
    every read and write atomic — the paper's shared-memory model
    (Section 3). *)

open Lnd_support

type readability = Any_reader | Single_reader of int

type t = {
  id : int;
  name : string;
  owner : int; (** the only process allowed to write *)
  readability : readability;
  init : Univ.t; (** the initial value (the reset adversary's target) *)
  mutable value : Univ.t;
}

val pp : Format.formatter -> t -> unit

val may_read : t -> by:int -> bool
(** SWMR: everyone; SWSR: the designated reader and the owner. *)

val may_write : t -> by:int -> bool
(** Only the owner — even Byzantine processes cannot bypass this
    (the write-port restriction of the paper's model). *)
