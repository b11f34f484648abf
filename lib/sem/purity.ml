(* Analysis 3: the machine-checked gate behind ROADMAP item 1's
   pure-core/driver split. A function annotated [@lnd.pure] — the
   contract of the protocol cores, the Machine programs every driver
   runs — may not:

     - mutate state it did not allocate itself (field assignment, [:=],
       [Hashtbl.replace], [Array.set], ... on anything but a
       locally-created ref/table/array/buffer);
     - perform ambient effects ([Effect.perform] — the scheduler's
       fibers run on effects);
     - call the scheduler, or touch the Transport / Wal / Disk / Obs /
       Net / shared-register seams (reading a register is a yield
       point, so even [Sched.read]/[Cell.read] are out);
     - use ambient randomness, wall clocks, or print.

   Local (same-module) callees are checked transitively, so a pure core
   cannot launder an effect through a helper. Reads of mutable state
   (e.g. [Hashtbl.find_opt]) are allowed: purity here means
   effect-freedom, not referential transparency — the driver owns all
   mutation. Raising is allowed ([invalid_arg] on bad input is control
   flow to the driver, not ambient state). Cross-module calls outside
   the deny-list are assumed pure (DESIGN.md §4i). *)

open Typedtree

type verdict = Pure | Impure of Location.t * string

type env = {
  aliases : Names.aliases;
  fns : Funtab.fn list;
  allows : Funtab.allows;
  mutable verdicts : (Ident.t * verdict) list;
  mutable in_progress : Ident.t list;
}

(* Mutators whose FIRST argument names the mutated value: allowed when
   that value is a local allocation the function owns. *)
let mutator (aliases : Names.aliases) (p : Path.t) : string option =
  match Names.last2 (Names.flatten aliases p) with
  | _, ":=" -> Some "(:=)"
  | ("Stdlib" | ""), ("incr" | "decr") ->
      Some (String.concat "." (Names.flatten aliases p))
  | ( (("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Array" | "Bytes") as m),
      (( "add" | "replace" | "remove" | "reset" | "clear" | "push" | "pop"
       | "take" | "set" | "unsafe_set" | "fill" | "blit" | "add_string"
       | "add_char" | "add_buffer" | "filter_map_inplace" | "truncate" ) as f
      ) ) ->
      Some (m ^ "." ^ f)
  | _ -> None

(* All idents bound to fresh allocations anywhere in this body. *)
let fresh_locals env (body : expression) : Ident.t list =
  let fresh = ref [] in
  let super = Tast_iterator.default_iterator in
  let value_binding it (vb : value_binding) =
    (match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> (
        match vb.vb_expr.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
          when Names.is_fresh_allocator env.aliases p ->
            fresh := id :: !fresh
        | Texp_record _ -> fresh := id :: !fresh
        | _ -> ())
    | _ -> ());
    super.value_binding it vb
  in
  let it = { super with value_binding } in
  it.expr it body;
  !fresh

let first_nolabel_arg (args : (Asttypes.arg_label * expression option) list)
    : expression option =
  List.find_map
    (fun (lbl, a) ->
      match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
    args

let is_fresh_ident fresh (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      List.exists (Ident.same id) fresh
  | _ -> false

(* Walk one body; [fail loc msg] is called on each violation. *)
let rec walk_body env ~(fail : Location.t -> string -> unit)
    (body : expression) : unit =
  let fresh = fresh_locals env body in
  let super = Tast_iterator.default_iterator in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_setfield (target, _, lbl, _) ->
        if not (is_fresh_ident fresh target) then
          fail e.exp_loc
            (Printf.sprintf
               "mutates non-local state (field `%s` assignment on a value \
                this function did not allocate)"
               lbl.Types.lbl_name);
        super.expr it e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when mutator env.aliases p <> None ->
        let name = Option.get (mutator env.aliases p) in
        let ok =
          match first_nolabel_arg args with
          | Some a -> is_fresh_ident fresh a
          | None -> false
        in
        if not ok then
          fail e.exp_loc
            (Printf.sprintf
               "mutates non-local state via %s (target is not a local \
                allocation)"
               name);
        (* args only: the head ident of an allowed mutation must not be
           re-flagged by the ident case below *)
        List.iter (fun (_, a) -> Option.iter (it.expr it) a) args
    | Texp_ident (p, _, _) -> (
        (* every resolved occurrence counts, applied or bare (a bare
           reference passed to a higher-order function MAY run here) *)
        (match Names.classify env.aliases p with
        | Names.Impure reason -> fail e.exp_loc ("references " ^ reason)
        | Names.Wal_append | Names.Wal_sync ->
            fail e.exp_loc "references the Wal journalling API"
        | Names.Send -> fail e.exp_loc "references the Transport send API"
        | Names.Reg_write | Names.Reg_read ->
            fail e.exp_loc
              "references the shared-register API (register access is a \
               scheduler yield point)"
        | Names.Sign | Names.Verify ->
            fail e.exp_loc
              "references the signature oracle (issuance/verification \
               counters are shared state)"
        | Names.Plain -> ());
        check_callee env ~fail e.exp_loc p)
    | Texp_field (_, _, lbl) ->
        (match Types.get_desc lbl.Types.lbl_res with
        | Types.Tconstr (p, _, _)
          when Names.last2 (Names.flatten env.aliases p) = ("Transport", "t")
               && (lbl.Types.lbl_name = "send"
                  || lbl.Types.lbl_name = "poll_all") ->
            fail e.exp_loc
              (Printf.sprintf "references the Transport endpoint's `%s`"
                 lbl.Types.lbl_name)
        | _ -> ());
        super.expr it e
    | _ -> super.expr it e
  in
  let it = { super with expr } in
  it.expr it body

(* Applications of local functions: transitively pure? Applications of
   classified effectful names are caught by the Texp_ident case above
   (the head ident is visited too). *)
and check_callee env ~fail (loc : Location.t) (p : Path.t) : unit =
  match p with
  | Path.Pident id when Funtab.find env.fns id <> None -> (
      match purity_of env id with
      | Pure -> ()
      | Impure (_, reason) ->
          fail loc
            (Printf.sprintf "calls `%s`, which %s" (Ident.name id) reason))
  | _ -> ()

and purity_of env (id : Ident.t) : verdict =
  match List.find_opt (fun (i, _) -> Ident.same i id) env.verdicts with
  | Some (_, v) -> v
  | None ->
      if List.exists (Ident.same id) env.in_progress then Pure
        (* optimistic on recursion: a cycle is pure unless some member
           commits an effect, which its own walk will catch *)
      else (
        env.in_progress <- id :: env.in_progress;
        let verdict = ref Pure in
        (match Funtab.find env.fns id with
        | None -> ()
        | Some fn ->
            walk_body env
              ~fail:(fun loc msg ->
                if !verdict = Pure then verdict := Impure (loc, msg))
              fn.fn_expr);
        env.in_progress <-
          List.filter (fun i -> not (Ident.same i id)) env.in_progress;
        env.verdicts <- (id, !verdict) :: env.verdicts;
        !verdict)

let check ~(file : string) (str : structure) : Lnd_lint_core.Findings.t list
    =
  let aliases, fns = Funtab.collect str in
  let allows = Funtab.collect_allows str in
  let env = { aliases; fns; allows; verdicts = []; in_progress = [] } in
  let found = ref [] in
  List.iter
    (fun (fn : Funtab.fn) ->
      if fn.fn_pure then
        walk_body env
          ~fail:(fun loc msg ->
            if not (Funtab.suppressed allows ~rule:"sem-pure" loc) then begin
              let p = loc.Location.loc_start in
              let f =
                {
                  Lnd_lint_core.Findings.rule = "sem-pure";
                  file;
                  line = p.Lexing.pos_lnum;
                  col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                  msg =
                    Printf.sprintf
                      "[@lnd.pure] `%s` %s; keep the core effect-free and \
                       let the driver own the effect, or justify with \
                       [@lnd.allow \"sem-pure: ...\"]"
                      fn.fn_name msg;
                }
              in
              if not (List.mem f !found) then found := f :: !found
            end)
          fn.fn_expr)
    fns;
  !found
