(** Algorithm 2 as a pure state machine.

    Programs over abstract register names ({!reg}); no scheduler, Obs or
    transport calls. {!Sticky} drives them on the simulator,
    [Lnd_parallel] on OCaml 5 domains. The register-access order is
    load-bearing (golden baselines + DPOR counts pin it). *)

open Lnd_support

type reg =
  | E of int  (** echo register E_i, owner p_i *)
  | R of int  (** witness register R_i, owner p_i *)
  | Rjk of int * int  (** R_{j,k}: owner p_j, single reader p_k (k >= 1) *)
  | C of int  (** round counter C_k, owner p_k (k >= 1) *)

val layout : n:int -> 'c Machine.allocator -> reg -> 'c
(** The one declaration of an instance's registers: allocate them
    through [alloc] — E_i and R_i (owner p_i, init ⊥), R_{j,k} (owner
    p_j, single reader p_k, init ⟨⊥, 0⟩; row-major, k >= 1), then C_k
    (owner p_k, init 0), in that order, which fixes the simulator's
    register ids — and return the name-to-cell map, an array lookup.
    Both drivers allocate through it. *)

(** {2 Decoders/encoders (defensive: ill-typed content reads as the
    initial value)} *)

val dec_vopt : Univ.t -> Value.t option
val enc_vopt : Value.t option -> Univ.t
val enc_stamped : Value.t option -> int -> Univ.t

(** {2 The protocol programs} *)

val write_prog : n:int -> q:Quorum.t -> Value.t -> (reg, unit) Machine.prog
(** WRITE(v), lines 1-6 (a second write is a no-op). *)

val write_nowait_prog : Value.t -> (reg, unit) Machine.prog
(** The Section 7.1 ablation of WRITE: lines 1-2 without the lines 3-5
    witness wait, so a READ after it completes may return ⊥. *)

val read_prog :
  n:int -> q:Quorum.t -> pid:int -> ck:int ->
  (reg, Value.t option * int) Machine.prog
(** READ(), lines 7-22. Returns (result, new round counter); the driver
    owns the reader's persistent [ck]. *)

val help_prog : n:int -> q:Quorum.t -> pid:int -> (reg, unit) Machine.prog
(** Help(), lines 23-40; never returns. Emits [Serving askers]/[Served]
    notes around each round that answers askers. *)

val help_lax_prog : n:int -> pid:int -> (reg, unit) Machine.prog
(** The Section 7.1 ablation of Help: Algorithm 1's lax witness policy.
    Each round echoes, copies E_0 into R_pid while R_pid is ⊥, then
    reads C_1..C_{n-1} and answers the askers from R_pid, or yields;
    never returns, emits no notes. An equivocating writer can split the
    correct witnesses between two values, and READs then stall. *)
