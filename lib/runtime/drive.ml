(* Driver #1: interpret a pure protocol core (Lnd_support.Machine) on the
   deterministic effects-based simulator.

   The driver is a loop over Machine.advance: every register read or
   write the program makes becomes exactly one Cell.read / Cell.write
   (one scheduler step each, in program order) and every Yield one
   Sched.yield, so a core driven here performs the same effect sequence
   — and therefore the same schedules, logical clocks, traces and DPOR
   exploration — as the pre-refactor inlined implementation it was
   extracted from. Notes are handed to the caller (protocol drivers map
   them to Obs HELP spans); they are not scheduler steps, exactly like
   the Obs calls they replace. *)

open Lnd_support
module Obs = Lnd_obs.Obs

let run ?(on_note : Machine.note -> unit = fun _ -> ())
    ~(cell : 'reg -> Cell.t) (p : ('reg, 'a) Machine.prog) : 'a =
  let read r = Cell.read (cell r) in
  let write r u = Cell.write (cell r) u in
  let rec loop p =
    match Machine.advance ~read ~write ~note:on_note p with
    | Machine.Yield k ->
        Sched.yield ();
        loop (k ())
    | Machine.Ret a -> a
    | Machine.Read _ | Machine.Write _ | Machine.Note _ ->
        invalid_arg "Drive.run: Machine.advance stopped short of a yield"
  in
  loop p

(* One HELP span per round that serves askers, so a trace shows helping
   work without one span per idle poll. The span id must survive from
   Serving to Served across the daemon's turns, hence one handler per
   daemon. *)
let help_note () : Machine.note -> unit =
  let sp = ref 0 in
  function
  | Machine.Serving askers ->
      if Obs.enabled () then
        sp :=
          Obs.span_open ~name:"HELP"
            ~arg:(String.concat "," (List.map string_of_int askers))
            ()
  | Machine.Served ->
      if Obs.enabled () then Obs.span_close ~result:"done" ~name:"HELP" !sp
