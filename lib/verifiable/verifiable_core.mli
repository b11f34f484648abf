(** Algorithm 1 as a pure state machine.

    Programs over abstract register names ({!reg}); no scheduler, Obs or
    transport calls. {!Verifiable} drives them on the simulator,
    [Lnd_parallel] on OCaml 5 domains. The register-access order is
    load-bearing (golden baselines + DPOR counts pin it). *)

open Lnd_support

type reg =
  | Rstar  (** R*: the current value, owner p0 *)
  | R of int  (** witness-set register R_i, owner p_i *)
  | Rjk of int * int  (** R_{j,k}: owner p_j, single reader p_k (k >= 1) *)
  | C of int  (** round counter C_k, owner p_k (k >= 1) *)

val layout : n:int -> 'c Machine.allocator -> reg -> 'c
(** The one declaration of an instance's registers: allocate them
    through [alloc] — R* (owner p0, init v0), R_i (owner p_i, init ∅),
    R_{j,k} (owner p_j, single reader p_k, init ⟨∅, 0⟩; row-major,
    k >= 1), then C_k (owner p_k, init 0), in that order, which fixes
    the simulator's register ids — and return the name-to-cell map, an
    array lookup. Both drivers allocate through it. *)

(** {2 Decoders/encoders (defensive: ill-typed content reads as the
    initial value)} *)

val dec_vset : Univ.t -> Value.Set.t
val enc_value : Value.t -> Univ.t
val enc_vset : Value.Set.t -> Univ.t
val enc_stamped : Value.Set.t -> int -> Univ.t

(** {2 The protocol programs} *)

val write_prog : Value.t -> (reg, unit) Machine.prog
(** WRITE(v): lines 1-3. The writer's local set of written values is
    driver state. *)

val sign_prog : written:Value.Set.t -> Value.t -> (reg, bool) Machine.prog
(** SIGN(v): lines 4-8; true for SUCCESS, false for FAIL (the FAIL case
    performs no accesses). *)

val read_prog : (reg, Value.t) Machine.prog
(** READ(): lines 9-10. *)

val verify_prog :
  n:int -> q:Quorum.t -> pid:int -> ck:int -> Value.t ->
  (reg, bool * int) Machine.prog
(** VERIFY(v): lines 11-24. Returns (verdict, new round counter); the
    driver owns the reader's persistent [ck]. *)

val strawman_verify_prog : q:Quorum.t -> Value.t -> (reg, bool) Machine.prog
(** The Section 5.1 strawman VERIFY: read every R_j once, TRUE on f+1
    yes. It always terminates but breaks relay (test A1). *)

val help_prog : n:int -> q:Quorum.t -> pid:int -> (reg, unit) Machine.prog
(** Help(): lines 25-36; never returns. Emits [Serving askers]/[Served]
    notes around each round that answers askers. *)
