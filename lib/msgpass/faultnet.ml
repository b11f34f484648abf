(* Seeded network fault injection over [Net]: fair-lossy links.

   [Net] is perfectly reliable — every send is durably appended to a
   channel log and delivered exactly once, in FIFO order. That silently
   under-tests the paper's Section 9 substrate, which assumes only
   *eventual* delivery over asynchronous links (Srikanth-Toueg [10],
   MPRJ [9]). [Faultnet] interposes on send/poll with a fully
   deterministic, seeded fault plan:

   - DROP: each message is lost with probability [drop_pct]%.
   - DUPLICATION: each delivered message is delivered twice with
     probability [dup_pct]% (the copies get independent delays, so a
     duplicate can arrive much later than the original).
   - DELAY / REORDERING: with probability [delay_pct]% a message is
     held back for 1..[max_delay] logical-clock ticks; later messages
     with smaller delays overtake it, so bounded delay doubles as
     reordering.
   - DYNAMIC PARTITIONS: during [cut_from, cut_until) messages crossing
     the [island] cut are lost; the partition heals when the clock
     passes [cut_until].

   Fairness (honest fair-lossy semantics): random drops on a link are
   capped at [fair_burst] consecutive losses — after that many in a row
   the next message on the link gets through. So any message that is
   retransmitted forever is eventually delivered, which is exactly the
   fair-lossy assumption the retransmission layer [Rlink] needs for
   liveness. Partition losses are exempt from the cap (a cut link
   delivers nothing), which is why plans must heal their partitions for
   liveness claims to apply.

   Determinism: all decisions are drawn from per-link SplitMix64 streams
   derived from [fault_seed], in send order on that link, and delivery
   times are logical-clock stamps — so (plan, scheduling policy) replays
   an identical delivery trace, in the one-seed-one-scenario style of
   lnd_fuzz.

   Self-links (src = dst) are exempt from all faults: a process's
   messages to itself are local, not network traffic.

   The wire format wraps each payload in a (deliver_at, payload)
   envelope under [fenv_key]; receivers hold back envelopes whose stamp
   is in the future. Raw (un-enveloped) payloads — e.g. injected by a
   Byzantine fiber writing straight to a [Net] port on the same
   channels — are delivered immediately, so adversarial raw traffic
   still flows. Sender authentication is untouched: Faultnet uses the
   same owner-enforced per-(src,dst) channel registers as Net. *)

open Lnd_support
open Lnd_runtime
module Obs = Lnd_obs.Obs

(* (deliver-at-clock, payload) *)
let fenv_key : (int * Univ.t) Univ.key =
  Univ.key ~name:"fenv"
    ~pp:(fun fmt (at, p) -> Format.fprintf fmt "@%d:%a" at Univ.pp p)
    ~equal:(fun (a1, p1) (a2, p2) -> a1 = a2 && Univ.equal p1 p2)

type partition = {
  cut_from : int; (* first clock tick of the cut *)
  cut_until : int; (* first tick after healing *)
  island : int list; (* pids on one side of the cut *)
}

type plan = {
  fault_seed : int;
  drop_pct : int; (* random per-message loss, percent *)
  dup_pct : int; (* duplicate delivery, percent *)
  delay_pct : int; (* chance of nonzero latency, percent *)
  max_delay : int; (* latency bound in logical-clock ticks *)
  fair_burst : int;
      (* max consecutive random drops per link; <= 0 disables the cap
         (the link is then lossy but NOT fair) *)
  partitions : partition list;
}

let zero : plan =
  {
    fault_seed = 0;
    drop_pct = 0;
    dup_pct = 0;
    delay_pct = 0;
    max_delay = 0;
    fair_burst = 0;
    partitions = [];
  }

let pp_partition fmt p =
  Format.fprintf fmt "[%s]@%d-%d"
    (String.concat "," (List.map string_of_int p.island))
    p.cut_from p.cut_until

let pp_plan fmt (p : plan) =
  Format.fprintf fmt "seed=%d drop=%d%% dup=%d%% delay=%d%%/%d fair=%d%a"
    p.fault_seed p.drop_pct p.dup_pct p.delay_pct p.max_delay p.fair_burst
    (fun fmt -> function
      | [] -> ()
      | ps ->
          Format.fprintf fmt " cut=%s"
            (String.concat "+"
               (List.map (Format.asprintf "%a" pp_partition) ps)))
    p.partitions

(* Per-directed-link fault state. *)
type link = { rng : Rng.t; mutable burst : int (* consecutive random drops *) }

type stats = {
  sent : int; (* messages offered to the fault layer *)
  dropped : int; (* random losses *)
  cut : int; (* partition losses *)
  duplicated : int; (* extra copies injected *)
  delayed : int; (* messages given nonzero latency *)
}

type t = {
  net : Net.t;
  plan : plan;
  links : link array array;
  mutable st_sent : int;
  mutable st_dropped : int;
  mutable st_cut : int;
  mutable st_duplicated : int;
  mutable st_delayed : int;
}

let wrap (net : Net.t) (plan : plan) : t =
  let master = Rng.create (plan.fault_seed * 0x9E37 + 0x79B9) in
  let n = net.Net.n in
  {
    net;
    plan;
    links =
      Array.init n (fun src ->
          Array.init n (fun dst ->
              { rng = Rng.derive master ((src * n) + dst); burst = 0 }));
    st_sent = 0;
    st_dropped = 0;
    st_cut = 0;
    st_duplicated = 0;
    st_delayed = 0;
  }

let stats (t : t) : stats =
  {
    sent = t.st_sent;
    dropped = t.st_dropped;
    cut = t.st_cut;
    duplicated = t.st_duplicated;
    delayed = t.st_delayed;
  }

let partitioned (t : t) ~src ~dst ~now =
  List.exists
    (fun p ->
      now >= p.cut_from && now < p.cut_until
      && List.mem src p.island <> List.mem dst p.island)
    t.plan.partitions

(* A message held back because its delivery stamp is in the future. *)
type held = { h_at : int; h_arr : int; h_payload : Univ.t }

type port = {
  fnet : t;
  nport : Net.port;
  pending : held list ref array; (* per source, unordered *)
  mutable arrivals : int; (* tiebreak: preserves arrival order *)
}

let port (t : t) ~pid : port =
  {
    fnet = t;
    nport = Net.port t.net ~pid;
    pending = Array.init t.net.Net.n (fun _ -> ref []);
    arrivals = 0;
  }

let send (p : port) ~(dst : int) (payload : Univ.t) : unit =
  let t = p.fnet in
  let src = p.nport.Net.pid in
  let now = Sched.now () in
  t.st_sent <- t.st_sent + 1;
  if src = dst then
    (* self-links are local, not network traffic: always perfect *)
    Net.send p.nport ~dst (Univ.inj fenv_key (now, payload))
  else if partitioned t ~src ~dst ~now then begin
    t.st_cut <- t.st_cut + 1;
    if Obs.enabled () then
      Obs.emit ~pid:src (Obs.Net_verdict { dst; verdict = Obs.Cut })
  end
  else begin
    let link = t.links.(src).(dst) in
    let forced = t.plan.fair_burst > 0 && link.burst >= t.plan.fair_burst in
    let drop =
      (not forced) && t.plan.drop_pct > 0
      && Rng.int link.rng 100 < t.plan.drop_pct
    in
    if drop then begin
      link.burst <- link.burst + 1;
      t.st_dropped <- t.st_dropped + 1;
      if Obs.enabled () then
        Obs.emit ~pid:src (Obs.Net_verdict { dst; verdict = Obs.Dropped })
    end
    else begin
      link.burst <- 0;
      let copies =
        if t.plan.dup_pct > 0 && Rng.int link.rng 100 < t.plan.dup_pct then begin
          t.st_duplicated <- t.st_duplicated + 1;
          if Obs.enabled () then
            Obs.emit ~pid:src (Obs.Net_verdict { dst; verdict = Obs.Dup });
          2
        end
        else 1
      in
      for _ = 1 to copies do
        let delay =
          if
            t.plan.max_delay > 0 && t.plan.delay_pct > 0
            && Rng.int link.rng 100 < t.plan.delay_pct
          then begin
            t.st_delayed <- t.st_delayed + 1;
            1 + Rng.int link.rng t.plan.max_delay
          end
          else 0
        in
        if Obs.enabled () then
          Obs.emit ~pid:src
            (Obs.Net_verdict
               { dst;
                 verdict = (if delay > 0 then Obs.Delayed delay else Obs.Deliver) });
        Net.send p.nport ~dst (Univ.inj fenv_key (now + delay, payload))
      done
    end
  end

let broadcast (p : port) (payload : Univ.t) : unit =
  for dst = 0 to p.fnet.net.Net.n - 1 do
    send p ~dst payload
  done

(* Messages from [src] whose delivery stamp has been reached, ordered by
   (stamp, arrival); later-stamped messages stay pending until a later
   poll — the delay queue that realises reordering. The clock is read
   before the channel: that read is a scheduling point, and the stamp
   must be the one the poll started at. *)
let poll_from (p : port) ~(src : int) : Univ.t list =
  let now = Sched.now () in
  match (Net.poll_from p.nport ~src, !(p.pending.(src))) with
  | [], [] -> [] (* nothing new, nothing held *)
  | fresh, _ ->
      List.iter
        (fun u ->
          let at, payload =
            match Univ.prj fenv_key u with
            | Some e -> e
            | None -> (0, u) (* raw Byzantine traffic: deliver immediately *)
          in
          p.arrivals <- p.arrivals + 1;
          p.pending.(src) :=
            { h_at = at; h_arr = p.arrivals; h_payload = payload }
            :: !(p.pending.(src)))
        fresh;
      let due, later =
        List.partition (fun h -> h.h_at <= now) !(p.pending.(src))
      in
      p.pending.(src) := later;
      List.sort (fun a b -> compare (a.h_at, a.h_arr) (b.h_at, b.h_arr)) due
      |> List.map (fun h -> h.h_payload)

(* [(src, m)] for every [m] of [ms], reversed onto [acc]. *)
let rec tag_rev src acc = function
  | [] -> acc
  | m :: rest -> tag_rev src ((src, m) :: acc) rest

let poll_all (p : port) : (int * Univ.t) list =
  let acc = ref [] in
  for src = 0 to p.fnet.net.Net.n - 1 do
    acc := tag_rev src !acc (poll_from p ~src)
  done;
  List.rev !acc

let transport (t : t) ~pid : Transport.t =
  let p = port t ~pid in
  {
    Transport.pid;
    n = t.net.Net.n;
    send = (fun ~dst payload -> send p ~dst payload);
    poll_all = (fun () -> poll_all p);
  }
