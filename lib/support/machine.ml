(* Pure protocol state machines.

   A protocol core is written as a ('reg, 'a) prog — a resumable program
   over abstract register names — with no scheduler, transport, or Obs
   calls inside: the only things a program can do are read/write a named
   register, mark a voluntary scheduling point, annotate itself for
   observability, or return. The residual program IS the machine state.

   One interpreter serves every driver. Its single [step] takes one
   node: it answers a Read through the driver's [read] callback, hands a
   Write to [write] and a Note to [note], or resumes a Yield; [advance]
   repeats it until the program yields or returns. Nothing is allocated
   between the callbacks beyond what the program's own continuations
   build.

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

(* A layout names its registers on every allocation, so once per domains
   session: tabulate the names of indices below 16, the largest n any
   harness runs, and format only beyond. *)
let tabulated = 16

let names (fmt : int -> string) : int -> string =
  let t = Array.init tabulated fmt in
  fun i -> if i >= 0 && i < tabulated then t.(i) else fmt i

let names2 (fmt : int -> int -> string) : int -> int -> string =
  let t = Array.init tabulated (fun i -> Array.init tabulated (fmt i)) in
  fun i j ->
    if i >= 0 && i < tabulated && j >= 0 && j < tabulated then t.(i).(j)
    else fmt i j

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

(* ---------------- The interpreter ---------------- *)

(* The single step every driver takes: one node of the program —
   perform its Read (answered by [read]) or Write (handed to [write]),
   hand its Note to [note], or resume its Yield — and return the rest. A
   Ret has no step and comes back unchanged. [advance] loops over it to
   the next Yield or Ret; the simulator's machine fibers
   (Sched.spawn_machine) take it once per scheduling step for the
   access, and again for each Note that follows. *)
let[@inline] step ~read ~write ~note (p : ('reg, 'a) prog) : ('reg, 'a) prog =
  match p with
  | Read (r, k) -> k (read r)
  | Write (r, u, k) ->
      write r u;
      k ()
  | Yield k -> k ()
  | Note (n, k) ->
      note n;
      k ()
  | Ret _ -> p

let rec advance ~read ~write ~note (p : ('reg, 'a) prog) : ('reg, 'a) prog =
  match p with
  | Ret _ | Yield _ -> p
  | Read _ | Write _ | Note _ ->
      advance ~read ~write ~note (step ~read ~write ~note p)
