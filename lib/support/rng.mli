(** Deterministic, splittable PRNG (SplitMix64).

    Every source of randomness in the simulator flows through one of
    these generators, so whole executions — including adversary behaviour
    and scheduling — replay exactly from a seed. A draw ({!int},
    {!bool}, and through them {!pick}, {!pick_arr} and {!shuffle})
    allocates nothing. *)

type t

val create : int -> t
(** A generator seeded by an integer. *)

val next64 : t -> int64
(** The next raw 64-bit output (advances the state). *)

val split : t -> t
(** An independent generator derived from this one's next output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** A uniform element of a non-empty list. *)

val pick_arr : t -> 'a array -> 'a
(** A uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val derive : t -> int -> t
(** [derive t salt] is a fresh generator for sub-stream [salt]. *)
