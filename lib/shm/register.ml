(* A shared register cell.

   Registers are single-writer: only [owner] may write. Readability is
   either [Any_reader] (SWMR) or [Single_reader pid] (SWSR, as used for the
   R_jk mailbox registers of Algorithms 1 and 2). The model makes every
   read and write atomic; atomicity at this granularity is exactly the
   paper's shared-memory model (Section 3). *)

open Lnd_support

type readability = Any_reader | Single_reader of int

type t = {
  id : int;
  name : string;
  owner : int;
  readability : readability;
  init : Univ.t;
  mutable value : Univ.t;
}

let pp fmt (r : t) =
  Format.fprintf fmt "%s(owner=p%d)=%a" r.name r.owner Univ.pp r.value

let may_read (r : t) ~(by : int) =
  match r.readability with
  | Any_reader -> true
  | Single_reader p -> p = by || r.owner = by

let may_write (r : t) ~(by : int) = r.owner = by
