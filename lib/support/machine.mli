(** Pure protocol state machines.

    A protocol core is a resumable program over abstract register names
    with no scheduler, transport, or Obs calls inside. The residual
    program is the machine state. Every driver (the deterministic
    simulator, the OCaml 5 domains backend) runs it through the one
    callback-style interpreter {!advance}, supplying the substrate's
    register read and write. See DESIGN.md, "Pure cores and drivers". *)

type note = Serving of int list | Served
    (** Protocol-level annotations: a helper starts serving the listed
        askers / finished serving them. The sim driver maps these to the
        HELP Obs spans the inlined implementations used to emit. *)

type ('reg, 'a) prog =
  | Ret of 'a
  | Read of 'reg * (Univ.t -> ('reg, 'a) prog)
  | Write of 'reg * Univ.t * (unit -> ('reg, 'a) prog)
  | Yield of (unit -> ('reg, 'a) prog)
  | Note of note * (unit -> ('reg, 'a) prog)

type 'c allocator =
  name:string -> owner:int -> ?single_reader:int -> init:Univ.t -> unit -> 'c
(** How a driver supplies a core's registers: one call per register, with
    its name, owner, optional single reader and initial content. A
    core's [layout ~n alloc] makes these calls in a fixed order and
    returns the map from its register names to the cells. *)

(** {2 Combinators} *)

val ret : 'a -> ('reg, 'a) prog
val read : 'reg -> ('reg, Univ.t) prog
val write : 'reg -> Univ.t -> ('reg, unit) prog
val yield : ('reg, unit) prog
val note : note -> ('reg, unit) prog
val bind : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog
val ( let* ) : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog

val map_reg : ('r1 -> 'r2) -> ('r1, 'a) prog -> ('r2, 'a) prog
(** Rename registers — used to compose cores (test-or-set runs a sticky
    or verifiable core under an injected register namespace). *)

(** {2 The interpreter} *)

val advance :
  read:('reg -> Univ.t) ->
  write:('reg -> Univ.t -> unit) ->
  note:(note -> unit) ->
  ('reg, 'a) prog ->
  ('reg, 'a) prog
(** [advance ~read ~write ~note p] runs [p] to its next [Yield] or [Ret]
    and returns that node. Each [Read r] on the way is answered with
    [read r]; each [Write] and [Note] is handed to [write] / [note]; all
    three in program order. A [p] that already is a [Yield] or [Ret]
    comes back unchanged, so a driver resumes a [Yield k] by calling
    [k ()] itself, after rescheduling. *)
