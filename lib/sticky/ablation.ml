(* Ablations for Algorithm 2, straight from the Section 7.1 prose.

   1. [write_nowait] — the paper asks: "a reader may wonder why, to write
      a value v, the writer has to wait for n-f witnesses of v before
      returning done ... It turns out that without this wait, a process
      may invoke a READ after a WRITE(v) completes and get back ⊥."
      This variant returns done immediately after writing E_1; the test
      suite exhibits exactly that validity violation.

   2. [help_lax] — Algorithm 2 uses a *stricter* witness policy than
      Algorithm 1: a process echoes first and witnesses only after n-f
      echoes, because "the stricter policy ... prevents correct processes
      from becoming witnesses for different values". This variant adopts
      Algorithm 1's lax policy (witness a value as soon as it is seen in
      the writer's register). The test suite shows an equivocating
      Byzantine writer splitting the correct witnesses between two values,
      which leaves READ unable to assemble an n-f quorum. *)

open Lnd_support
open Lnd_runtime
open Sticky_core

let read_vopt reg = Univ.prj_default Codecs.value_opt ~default:None (Cell.read reg)
let read_counter reg = Univ.prj_default Codecs.counter ~default:0 (Cell.read reg)

(* WRITE without the lines 3-5 witness wait. *)
let write_nowait (w : Sticky.writer) (v : Value.t) : unit =
  let cell = w.Sticky.w_regs.Sticky.cell in
  if read_vopt (cell (E 0)) = None then
    Cell.write (cell (E 0)) (Univ.inj Codecs.value_opt (Some v))

(* Help with the LAX witness policy: copy whatever the writer's echo
   register currently shows straight into the witness register. The
   asker-answering machinery is unchanged. *)
let help_lax (rg : Sticky.regs) ~pid : unit =
  let { Sticky.n; f = _ } = rg.Sticky.cfg in
  let cell = rg.Sticky.cell in
  let prev_c = Array.make n 0 in
  while true do
    (* echo (same as Algorithm 2) *)
    if read_vopt (cell (E pid)) = None then begin
      let e1 = read_vopt (cell (E 0)) in
      match e1 with
      | Some _ -> Cell.write (cell (E pid)) (Univ.inj Codecs.value_opt e1)
      | None -> ()
    end;
    (* LAX adoption: witness the writer's current value directly, no
       echo quorum *)
    if read_vopt (cell (R pid)) = None then begin
      match read_vopt (cell (E 0)) with
      | Some v ->
          Cell.write (cell (R pid)) (Univ.inj Codecs.value_opt (Some v))
      | None -> ()
    end;
    let cks = Array.make n 0 in
    for k = 1 to n - 1 do
      cks.(k) <- read_counter (cell (C k))
    done;
    let askers = ref [] in
    for k = n - 1 downto 1 do
      if cks.(k) > prev_c.(k) then askers := k :: !askers
    done;
    if !askers <> [] then begin
      let rj = read_vopt (cell (R pid)) in
      List.iter
        (fun k ->
          Cell.write (cell (Rjk (pid, k)))
            (Univ.inj Codecs.vopt_stamped (rj, cks.(k)));
          prev_c.(k) <- cks.(k))
        !askers
    end
    else Sched.yield ()
  done
