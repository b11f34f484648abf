(* Pure protocol state machines.

   A protocol core is written as a ('reg, 'a) prog — a resumable program
   over abstract register names — with no scheduler, transport, or Obs
   calls inside: the only things a program can do are read/write a named
   register, mark a voluntary scheduling point, annotate itself for
   observability, or return. The residual program IS the machine state,
   and {!step} exposes the uniform

     step : state -> event -> state * action list

   shape: feed the pending event in, get back the new state plus zero or
   more non-blocking actions (writes, notes) followed by exactly one
   blocking action (a read to answer, a yield to grant, or done).

   Drivers interpret actions against a concrete substrate: the
   deterministic effects-based simulator maps A_read/A_write to
   Cell.read/Cell.write (one scheduler step each) and A_yield to
   Sched.yield, reproducing the pre-refactor effect sequences exactly;
   the OCaml 5 domains backend maps them to atomic shared
   registers with real preemption. Notes carry protocol-level
   annotations (which askers a helper is serving) so the sim driver can
   emit the same Obs spans the inlined implementations used to. *)

type note = Serving of int list | Served

type ('reg, 'a) prog =
  | Ret of 'a
  | Read of 'reg * (Univ.t -> ('reg, 'a) prog)
  | Write of 'reg * Univ.t * (unit -> ('reg, 'a) prog)
  | Yield of (unit -> ('reg, 'a) prog)
  | Note of note * (unit -> ('reg, 'a) prog)

(* ---------------- Combinators ---------------- *)

let[@lnd.pure] ret a = Ret a
let[@lnd.pure] read r = Read (r, fun u -> Ret u)
let[@lnd.pure] write r u = Write (r, u, fun () -> Ret ())
let[@lnd.pure] yield = Yield (fun () -> Ret ())
let[@lnd.pure] note n = Note (n, fun () -> Ret ())

let[@lnd.pure] rec bind (p : ('reg, 'a) prog) (f : 'a -> ('reg, 'b) prog) :
    ('reg, 'b) prog =
  match p with
  | Ret a -> f a
  | Read (r, k) -> Read (r, fun u -> bind (k u) f)
  | Write (r, u, k) -> Write (r, u, fun () -> bind (k ()) f)
  | Yield k -> Yield (fun () -> bind (k ()) f)
  | Note (n, k) -> Note (n, fun () -> bind (k ()) f)

let ( let* ) = bind

let[@lnd.pure] rec map_reg (g : 'r1 -> 'r2) (p : ('r1, 'a) prog) :
    ('r2, 'a) prog =
  match p with
  | Ret a -> Ret a
  | Read (r, k) -> Read (g r, fun u -> map_reg g (k u))
  | Write (r, u, k) -> Write (g r, u, fun () -> map_reg g (k ()))
  | Yield k -> Yield (fun () -> map_reg g (k ()))
  | Note (n, k) -> Note (n, fun () -> map_reg g (k ()))

(* ---------------- The step function ---------------- *)

type 'reg action =
  | A_write of 'reg * Univ.t
  | A_note of note
  | A_read of 'reg  (** blocking: answer with [Got value] *)
  | A_yield  (** blocking: answer with [Ack] after rescheduling *)
  | A_done  (** the program returned; {!result} is now [Some _] *)

type event = Start | Got of Univ.t | Ack

exception Protocol_error of string

(* Peel the non-blocking prefix off the residual program: emit every
   Write/Note as an action and stop at the first blocking point (Read,
   Yield or Ret), which stays as the new state awaiting its event. *)
let[@lnd.pure] rec drain (p : ('reg, 'a) prog) (acc : 'reg action list) :
    ('reg, 'a) prog * 'reg action list =
  match p with
  | Ret _ -> (p, List.rev (A_done :: acc))
  | Read (r, _) -> (p, List.rev (A_read r :: acc))
  | Yield _ -> (p, List.rev (A_yield :: acc))
  | Write (r, u, k) -> drain (k ()) (A_write (r, u) :: acc)
  | Note (n, k) -> drain (k ()) (A_note n :: acc)

let[@lnd.pure] step (st : ('reg, 'a) prog) (ev : event) :
    ('reg, 'a) prog * 'reg action list =
  let resumed =
    match (st, ev) with
    | _, Start -> st
    | Read (_, k), Got u -> k u
    | Yield k, Ack -> k ()
    | Ret _, (Got _ | Ack) ->
        raise (Protocol_error "Machine.step: event delivered to a finished machine")
    | Read _, Ack -> raise (Protocol_error "Machine.step: Ack answers a read")
    | Yield _, Got _ -> raise (Protocol_error "Machine.step: value answers a yield")
    | (Write _ | Note _), _ ->
        raise (Protocol_error "Machine.step: state not at a blocking point")
  in
  drain resumed []

let[@lnd.pure] result (st : ('reg, 'a) prog) : 'a option =
  match st with Ret a -> Some a | _ -> None
