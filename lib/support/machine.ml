(* Pure protocol state machines.

   A protocol core is written as a ('reg, 'a) prog — a resumable program
   over abstract register names — with no scheduler, transport, or Obs
   calls inside: the only things a program can do are read/write a named
   register, mark a voluntary scheduling point, annotate itself for
   observability, or return. The residual program IS the machine state.

   One interpreter, [advance], serves every driver: it runs a program
   until it yields or returns, answering each Read through the driver's
   [read] callback and handing Writes and Notes to [write] and [note] in
   program order. Nothing is allocated between the callbacks beyond what
   the program's own continuations build.

   The deterministic effects-based simulator (Drive) maps read/write to
   Cell.read/Cell.write (one scheduler step each) and a Yield to
   Sched.yield, reproducing the pre-refactor effect sequences exactly;
   the OCaml 5 domains backend (Domains) maps them to atomic shared
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

type 'c allocator =
  name:string -> owner:int -> ?single_reader:int -> init:Univ.t -> unit -> 'c

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

(* ---------------- The interpreter ---------------- *)

let rec advance ~read ~write ~note (p : ('reg, 'a) prog) : ('reg, 'a) prog =
  match p with
  | Ret _ | Yield _ -> p
  | Read (r, k) -> advance ~read ~write ~note (k (read r))
  | Write (r, u, k) ->
      write r u;
      advance ~read ~write ~note (k ())
  | Note (n, k) ->
      note n;
      advance ~read ~write ~note (k ())
