(** A universal type with named, typed keys.

    Shared registers carry [Univ.t] so that a Byzantine process can store
    arbitrary — even ill-typed — content in the registers it owns, while
    correct code projects values back defensively with {!prj} or
    {!prj_default}. *)

type t
(** A value of some (key-identified) type. *)

type 'a key
(** A typed injection/projection key. Two keys created by separate calls
    to {!key} are always distinct, even with the same name. *)

val key :
  name:string ->
  pp:(Format.formatter -> 'a -> unit) ->
  equal:('a -> 'a -> bool) ->
  'a key
(** [key ~name ~pp ~equal] mints a fresh key for type ['a]. *)

val inj : 'a key -> 'a -> t
(** Wrap a value under a key: one 3-word block. *)

val prj : 'a key -> t -> 'a option
(** Project a value back; [None] if it was injected under another key. *)

val prj_default : 'a key -> default:'a -> t -> 'a
(** Defensive projection: ill-typed content (e.g. garbage written by a
    Byzantine owner) reads as [default]. Allocates nothing. *)

val key_name : t -> string
(** The name of the key a value was injected under. *)

val pp : Format.formatter -> t -> unit
(** Print the payload with its key's printer. *)

val equal : t -> t -> bool
(** Same key and equal payloads. *)

(** {2 Ready-made keys} *)

val unit : unit key
val int : int key
val string : string key

val garbage : string key
(** A catch-all payload no correct decoder accepts; used by adversaries. *)
