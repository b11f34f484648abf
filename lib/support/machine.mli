(** Pure protocol state machines.

    A protocol core is a resumable program over abstract register names
    with no scheduler, transport, or Obs calls inside. The residual
    program is the machine state. Every driver (the deterministic
    simulator, the OCaml 5 domains backend) runs it through the one
    callback-style interpreter, supplying the substrate's register read
    and write: {!advance} to the next yield, or one {!step} at a time.
    See DESIGN.md, "Pure cores and drivers". *)

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

val names : (int -> string) -> int -> string
(** [names fmt] is [fmt], with its results for 0..15 built once, when
    [names fmt] is applied: a layout's register names then cost nothing
    per allocation up to n = 16, the largest size any harness runs. *)

val names2 : (int -> int -> string) -> int -> int -> string
(** [names] for names with two indices, each below 16. *)

(** {2 Combinators} *)

val ret : 'a -> ('reg, 'a) prog
val read : 'reg -> ('reg, Univ.t) prog
val write : 'reg -> Univ.t -> ('reg, unit) prog
val yield : ('reg, unit) prog
val note : note -> ('reg, unit) prog
val bind : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog
val ( let* ) : ('reg, 'a) prog -> ('a -> ('reg, 'b) prog) -> ('reg, 'b) prog

val cycle :
  'reg array ->
  (round:('reg, 'a) prog -> next:('reg, 'a) prog -> int -> Univ.t ->
  ('reg, 'a) prog) ->
  ('reg, 'a) prog
(** [cycle regs step] is a round of reads, built once, that repeats
    forever: it reads [regs.(0)], [regs.(1)], ... in order, and after the
    last one yields and starts again. The node reading [regs.(i)]
    answers its content [u] with [step ~round ~next i u], where [round]
    is the round's first node and [next] the node after this read (the
    next read, or the closing [Yield]). A step that returns [next] keeps
    the round going without building a node; any other program takes
    over from there. The nodes never change once built, so a driver may
    keep, resume or restore any of them. *)

(** {2 The interpreter} *)

val step :
  read:('reg -> Univ.t) ->
  write:('reg -> Univ.t -> unit) ->
  note:(note -> unit) ->
  ('reg, 'a) prog ->
  ('reg, 'a) prog
(** One node: answer [p]'s [Read r] with [read r], hand its [Write] to
    [write] or its [Note] to [note], or resume its [Yield], and return
    the rest of the program. A [Ret] comes back unchanged. *)

val advance :
  read:('reg -> Univ.t) ->
  write:('reg -> Univ.t -> unit) ->
  note:(note -> unit) ->
  ('reg, 'a) prog ->
  ('reg, 'a) prog
(** [advance ~read ~write ~note p] runs [p] to its next [Yield] or [Ret]
    by repeated {!step}s and returns that node. Each [Read r] on the way
    is answered with [read r]; each [Write] and [Note] is handed to
    [write] / [note]; all three in program order. A [p] that already is
    a [Yield] or [Ret] comes back unchanged, so a driver resumes a
    [Yield k] by calling [k ()] itself, after rescheduling. *)
