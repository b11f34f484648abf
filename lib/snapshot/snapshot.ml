(* A signed single-writer snapshot object on verifiable registers,
   demonstrating the Section 1.1 claim: constructions that use signatures
   to let readers trust and relay segment contents (Cohen-Keidar style)
   can substitute the paper's verifiable registers for the signatures.

   Each process i owns one segment, backed by one verifiable-register
   instance in which i plays the writer role:

     UPDATE(i, v)  =  WRITE(v); SIGN(v) on i's verifiable register.
     SCAN()        =  repeatedly collect every segment with
                      READ + VERIFY, and return the first collect that
                      (a) repeats identically twice (double-collect) and
                      (b) contains only verified (i.e. "signed") values —
                      unverified segment contents read as the initial v0.

   Unforgeability of the verifiable register gives the snapshot its
   Byzantine guarantee: a segment value appears in a scan only if its
   owner signed it; a Byzantine owner can keep writing garbage but cannot
   make scanners accept a value it never signed, and once one scanner
   accepts a value every later scanner accepts it too (relay).

   Deviation note (DESIGN.md §4.5): Cohen-Keidar's full atomic-snapshot
   algorithm with embedded scans is not reproduced line-by-line (it is not
   printed in this paper); the double-collect scan here is linearizable
   under writer quiescence and validated empirically in the tests. *)

open Lnd_support
open Lnd_runtime
module Vr = Lnd_verifiable.Verifiable
module Vr_core = Lnd_verifiable.Verifiable_core

type segment = {
  seg_owner : int;
  seg_regs : Vr.regs;
  seg_to_virtual : int -> int;
  seg_writer : Vr.writer;
  seg_readers : Vr.reader option array;
      (* persistent per real reader pid: round counters must be monotone
         across all of a reader's verifies of this segment *)
}

type t = {
  n : int;
  f : int;
  segments : segment array;
}

let rotation ~n ~owner =
  let to_real v = (v + owner) mod n in
  let to_virtual r = ((r - owner) + n) mod n in
  (to_real, to_virtual)

let create space sched ~n ~f ?(byzantine : int list = []) () : t =
  let segments =
    Array.init n (fun owner ->
        let to_real, to_virtual = rotation ~n ~owner in
        let mk : Cell.allocator =
         fun ~name ~owner:vowner ?single_reader ~init () ->
          Cell.shm_allocator space
            ~name:(Printf.sprintf "snap[%d].%s" owner name)
            ~owner:(to_real vowner)
            ?single_reader:(Option.map to_real single_reader)
            ~init ()
        in
        let regs = Vr.alloc_with mk { Vr.n; f } in
        let seg_readers =
          Array.init n (fun pid ->
              let vpid = to_virtual pid in
              if vpid = 0 then None else Some (Vr.reader regs ~pid:vpid))
        in
        { seg_owner = owner; seg_regs = regs; seg_to_virtual = to_virtual;
          seg_writer = Vr.writer regs; seg_readers })
  in
  for pid = 0 to n - 1 do
    if not (List.mem pid byzantine) then
      Array.iter
        (fun seg ->
          let vpid = seg.seg_to_virtual pid in
          ignore
            (Sched.spawn sched ~pid
               ~name:(Printf.sprintf "snap-help%d[%d]" pid seg.seg_owner)
               ~daemon:true (fun () -> Vr.help seg.seg_regs ~pid:vpid)))
        segments
  done;
  { n; f; segments }

(* UPDATE my segment; must run in a fiber of [pid]. *)
let update (t : t) ~pid (v : Value.t) : unit =
  let seg = t.segments.(pid) in
  Vr.write seg.seg_writer v;
  let ok = Vr.sign seg.seg_writer v in
  assert ok

(* Collect one verified view: per segment, the current value if the owner
   signed it, else v0. Must run in a fiber of [pid]. *)
let collect (t : t) ~pid : Value.t array =
  Array.map
    (fun seg ->
      if seg.seg_owner = pid then begin
        (* my own segment: value is "in the snapshot" iff I signed it,
           i.e. iff it is in my witness register R_0 *)
        let v =
          Univ.prj_default Codecs.value ~default:Value.v0
            (Cell.read (seg.seg_regs.Vr.cell Vr_core.Rstar))
        in
        let signed =
          Univ.prj_default Codecs.vset ~default:Value.Set.empty
            (Cell.read (seg.seg_regs.Vr.cell (Vr_core.R 0)))
        in
        if Value.Set.mem v signed then v else Value.v0
      end
      else begin
        let rd = Option.get seg.seg_readers.(pid) in
        let v = Vr.read rd in
        if Value.equal v Value.v0 then Value.v0
        else if Vr.verify rd v then v
        else Value.v0
      end)
    t.segments

(* SCAN: double-collect until two identical verified views. *)
let scan ?(max_rounds = 64) (t : t) ~pid : Value.t array =
  let rec go prev rounds =
    let cur = collect t ~pid in
    if prev = Some cur || rounds >= max_rounds then cur
    else begin
      Sched.yield ();
      go (Some cur) (rounds + 1)
    end
  in
  go None 0
