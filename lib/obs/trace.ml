module Univ = Lnd_support.Univ

(* --- Per-domain event arenas ------------------------------------------- *)

(* One preallocated buffer owned by exactly one domain: the owner is the
   only writer of [len]/[dropped], so the record hot path touches no
   shared state and allocates no heap words. The merge reads the slots
   after the run that filled them has returned. *)
type slot = {
  buf : Obs.event array;
  mutable len : int;
  mutable dropped : int;
  dom : int; (* Domain id of the owning domain, for slot reuse *)
}

type t = {
  id : int; (* unique arena-set id, keys the per-domain slot cache *)
  keep : Obs.event -> bool;
  capacity : int;
  mu : Mutex.t; (* guards slot registration only, never the hot path *)
  mutable slots : slot list; (* reverse registration order *)
  mutable nslots : int;
  mutable finished : bool;
  mutable extra : Obs.event list; (* aborted closes appended by [finish] *)
}

let ids = Atomic.make 0
let default_capacity = 1 lsl 20

let dummy_event =
  { Obs.at = 0; pid = -1; span = 0; kind = Obs.Link_stale { src = -1 } }

let create ?(keep = fun _ -> true) ?(capacity = default_capacity) () =
  { id = Atomic.fetch_and_add ids 1;
    keep;
    capacity;
    mu = Mutex.create ();
    slots = [];
    nslots = 0;
    finished = false;
    extra = [] }

(* One cached (arena id, slot) pair per domain: after the first event a
   domain records into a trace, every further record hits the cache and
   never takes the lock. A domain interleaving two live traces thrashes
   the cache through the registration lock but never duplicates slots
   (the slot registered for this domain is found and reused); memory
   pinned by stale cache entries is bounded by one buffer per domain,
   and a pooled worker domain drops its entry ([release_domain]) after
   each body. *)
type cache = { mutable owner : int; mutable cached : slot option }

let cache_key = Domain.DLS.new_key (fun () -> { owner = -1; cached = None })
let self_dom () = (Domain.self () :> int)

let slot_for t =
  let c = Domain.DLS.get cache_key in
  match c.cached with
  | Some s when c.owner = t.id -> s
  | _ ->
      let dom = self_dom () in
      Mutex.lock t.mu;
      let s =
        match List.find_opt (fun s -> s.dom = dom) t.slots with
        | Some s -> s
        | None ->
            let s =
              { buf = Array.make t.capacity dummy_event;
                len = 0;
                dropped = 0;
                dom }
            in
            t.slots <- s :: t.slots;
            t.nslots <- t.nslots + 1;
            s
      in
      Mutex.unlock t.mu;
      c.owner <- t.id;
      c.cached <- Some s;
      s

let release_domain () =
  let c = Domain.DLS.get cache_key in
  c.owner <- -1;
  c.cached <- None

let record t (e : Obs.event) =
  let s = slot_for t in
  if s.len < t.capacity then begin
    s.buf.(s.len) <- e;
    s.len <- s.len + 1
  end
  else s.dropped <- s.dropped + 1

let sink t =
  { Obs.emit =
      (fun e ->
        match e.kind with
        | Span_open _ | Span_close _ -> record t e
        | _ -> if t.keep e then record t e) }

(* --- Deterministic merge ----------------------------------------------- *)

(* A single-domain trace is already in emission order, which the
   deterministic simulator pins byte-for-byte — return it untouched. A
   multi-domain trace merges by the (atomic, fetch-and-add) clock stamp;
   the sort is stable over slot registration order, so equal stamps —
   impossible when the domains backend installs the tick clock, since
   every stamp is unique — still break ties deterministically for a
   fixed registration order. *)
let merged t =
  let slots = List.rev t.slots in
  let evs =
    List.concat_map (fun s -> Array.to_list (Array.sub s.buf 0 s.len)) slots
  in
  if t.nslots > 1 then
    List.stable_sort
      (fun (a : Obs.event) (b : Obs.event) -> Int.compare a.at b.at)
      evs
  else evs

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let evs = merged t in
    let opens : (int, string * int) Hashtbl.t = Hashtbl.create 64 in
    let last_at = ref 0 in
    List.iter
      (fun (e : Obs.event) ->
        if e.at > !last_at then last_at := e.at;
        match e.kind with
        | Span_open { name; _ } -> Hashtbl.replace opens e.span (name, e.pid)
        | Span_close _ -> Hashtbl.remove opens e.span
        | _ -> ())
      evs;
    (* Children always carry a larger id than their parent (ids are
       allocated at open time), so closing in descending id order keeps
       the stream well-nested. *)
    let dangling =
      Hashtbl.fold (fun id info acc -> (id, info) :: acc) opens []
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    t.extra <-
      List.map
        (fun (id, (name, pid)) ->
          { Obs.at = !last_at;
            pid;
            span = id;
            kind = Obs.Span_close { name; result = None; aborted = true } })
        dangling
  end

let events t = merged t @ t.extra

let size t =
  List.fold_left (fun acc s -> acc + s.len) (List.length t.extra) t.slots

let dropped t = List.fold_left (fun acc s -> acc + s.dropped) 0 t.slots
let domains t = t.nslots

(* --- JSONL export ------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let fld_str b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":\"";
  escape b v;
  Buffer.add_char b '"'

let fld_int b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b "\":";
  Buffer.add_string b (string_of_int v)

let fld_bool b k v =
  Buffer.add_string b ",\"";
  Buffer.add_string b k;
  Buffer.add_string b (if v then "\":true" else "\":false")

let verdict_name = function
  | Obs.Deliver -> "deliver"
  | Obs.Dropped -> "drop"
  | Obs.Cut -> "cut"
  | Obs.Dup -> "dup"
  | Obs.Delayed _ -> "delay"

let add_kind b (k : Obs.kind) =
  match k with
  | Span_open { name; arg; parent } ->
      fld_str b "name" name;
      fld_int b "parent" parent;
      (match arg with Some a -> fld_str b "arg" a | None -> ())
  | Span_close { name; result; aborted } ->
      fld_str b "name" name;
      fld_bool b "aborted" aborted;
      (match result with Some r -> fld_str b "result" r | None -> ())
  | Sched_spawn { fid; fname; daemon } ->
      fld_int b "fid" fid;
      fld_str b "fname" fname;
      fld_bool b "daemon" daemon
  | Sched_switch { fid; fname } ->
      fld_int b "fid" fid;
      fld_str b "fname" fname
  | Sched_exit { fid; fname; failed } ->
      fld_int b "fid" fid;
      fld_str b "fname" fname;
      fld_bool b "failed" failed
  | Shm_access { access; reg; value } ->
      fld_str b "access" (match access with `Read -> "read" | `Write -> "write");
      fld_str b "reg" reg;
      fld_str b "key" (Univ.key_name value);
      fld_str b "value" (Fmt.str "%a" Univ.pp value)
  | Net_verdict { dst; verdict } -> (
      fld_int b "dst" dst;
      fld_str b "verdict" (verdict_name verdict);
      match verdict with Delayed n -> fld_int b "ticks" n | _ -> ())
  | Link_data { dst; seq; retrans } ->
      fld_int b "dst" dst;
      fld_int b "seq" seq;
      fld_bool b "retrans" retrans
  | Link_ack { dst; seq } ->
      fld_int b "dst" dst;
      fld_int b "seq" seq
  | Link_deliver { src; seq } ->
      fld_int b "src" src;
      fld_int b "seq" seq
  | Link_dedup { src; seq } ->
      fld_int b "src" src;
      fld_int b "seq" seq
  | Link_stale { src } -> fld_int b "src" src
  | Link_epoch { src; epoch } ->
      fld_int b "src" src;
      fld_int b "epoch" epoch
  | Reg_round { reg; round; rid } ->
      fld_int b "reg" reg;
      fld_str b "round" round;
      fld_int b "rid" rid
  | Reg_reply { reg; rid; src; count } ->
      fld_int b "reg" reg;
      fld_int b "rid" rid;
      fld_int b "src" src;
      fld_int b "count" count
  | Reg_quorum { reg; rid; count } ->
      fld_int b "reg" reg;
      fld_int b "rid" rid;
      fld_int b "count" count
  | Wal_append { bytes } -> fld_int b "bytes" bytes
  | Wal_sync { records; latency } ->
      fld_int b "records" records;
      fld_int b "latency" latency
  | Wal_snapshot { records } -> fld_int b "records" records
  | Wal_recover { records } -> fld_int b "records" records
  | Disk_crash { torn } -> fld_int b "torn" torn
  | Claim { src; claim; fp } ->
      fld_int b "src" src;
      (match claim with
      | Cl_init { sender; seq } ->
          fld_str b "claim" "init";
          fld_int b "sender" sender;
          fld_int b "seq" seq
      | Cl_vouch { sender; seq; tag } ->
          fld_str b "claim" "vouch";
          fld_str b "tag" tag;
          fld_int b "sender" sender;
          fld_int b "seq" seq
      | Cl_wreq { reg; ts } ->
          fld_str b "claim" "wreq";
          fld_int b "reg" reg;
          fld_int b "ts" ts
      | Cl_wecho { reg; ts } ->
          fld_str b "claim" "wecho";
          fld_int b "reg" reg;
          fld_int b "ts" ts
      | Cl_wack { reg; ts } ->
          fld_str b "claim" "wack";
          fld_int b "reg" reg;
          fld_int b "ts" ts
      | Cl_rrep { reg; rid; ts } ->
          fld_str b "claim" "rrep";
          fld_int b "reg" reg;
          fld_int b "rid" rid;
          fld_int b "ts" ts
      | Cl_state { reg; ts } ->
          fld_str b "claim" "state";
          fld_int b "reg" reg;
          fld_int b "ts" ts
      | Cl_garbage -> fld_str b "claim" "garbage");
      if fp <> "" then fld_str b "fp" fp
  | Reg_write_ann { reg; ts; fp } ->
      fld_int b "reg" reg;
      fld_int b "ts" ts;
      fld_str b "fp" fp
  | Reg_alloc { reg; owner; fp } ->
      fld_int b "reg" reg;
      fld_int b "owner" owner;
      fld_str b "fp" fp
  | Link_incarnation { epoch } -> fld_int b "epoch" epoch
  | Watchdog_stall { fid; fname; op; deadline } ->
      fld_int b "fid" fid;
      fld_str b "fname" fname;
      fld_str b "op" op;
      fld_int b "deadline" deadline
  | Explore_run { mode; idx; depth; reason } ->
      fld_str b "mode" mode;
      fld_int b "idx" idx;
      fld_int b "depth" depth;
      fld_str b "reason" reason
  | Explore_stats { mode; runs; pruned; blocked; races; exhausted } ->
      fld_str b "mode" mode;
      fld_int b "runs" runs;
      fld_int b "pruned" pruned;
      fld_int b "blocked" blocked;
      fld_int b "races" races;
      fld_bool b "exhausted" exhausted

let kind_name (k : Obs.kind) =
  match k with
  | Span_open _ -> "span_open"
  | Span_close _ -> "span_close"
  | Sched_spawn _ -> "sched_spawn"
  | Sched_switch _ -> "sched_switch"
  | Sched_exit _ -> "sched_exit"
  | Shm_access _ -> "shm"
  | Net_verdict _ -> "net"
  | Link_data _ -> "link_data"
  | Link_ack _ -> "link_ack"
  | Link_deliver _ -> "link_deliver"
  | Link_dedup _ -> "link_dedup"
  | Link_stale _ -> "link_stale"
  | Link_epoch _ -> "link_epoch"
  | Reg_round _ -> "reg_round"
  | Reg_reply _ -> "reg_reply"
  | Reg_quorum _ -> "reg_quorum"
  | Wal_append _ -> "wal_append"
  | Wal_sync _ -> "wal_sync"
  | Wal_snapshot _ -> "wal_snapshot"
  | Wal_recover _ -> "wal_recover"
  | Disk_crash _ -> "disk_crash"
  | Claim _ -> "claim"
  | Reg_write_ann _ -> "reg_write_ann"
  | Reg_alloc _ -> "reg_alloc"
  | Link_incarnation _ -> "link_incarnation"
  | Watchdog_stall _ -> "watchdog_stall"
  | Explore_run _ -> "explore_run"
  | Explore_stats _ -> "explore_stats"

let add_event_json b (e : Obs.event) =
  Buffer.add_string b "{\"at\":";
  Buffer.add_string b (string_of_int e.at);
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int e.pid);
  Buffer.add_string b ",\"span\":";
  Buffer.add_string b (string_of_int e.span);
  Buffer.add_string b ",\"ev\":\"";
  Buffer.add_string b (kind_name e.kind);
  Buffer.add_char b '"';
  add_kind b e.kind;
  Buffer.add_char b '}'

let event_to_json e =
  let b = Buffer.create 128 in
  add_event_json b e;
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create (64 * size t) in
  List.iter
    (fun e ->
      add_event_json b e;
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

(* --- Chrome trace export ----------------------------------------------- *)

let to_chrome t =
  let b = Buffer.create (96 * size t) in
  Buffer.add_string b "[";
  let first = ref true in
  List.iter
    (fun (e : Obs.event) ->
      if !first then first := false else Buffer.add_string b ",\n";
      let common ph name cat =
        Buffer.add_string b "{\"name\":\"";
        escape b name;
        Buffer.add_string b "\",\"cat\":\"";
        Buffer.add_string b cat;
        Buffer.add_string b "\",\"ph\":\"";
        Buffer.add_string b ph;
        Buffer.add_string b "\",\"ts\":";
        Buffer.add_string b (string_of_int e.at);
        Buffer.add_string b ",\"pid\":";
        Buffer.add_string b (string_of_int e.pid);
        Buffer.add_string b ",\"tid\":";
        Buffer.add_string b (string_of_int e.pid)
      in
      (match e.kind with
      | Span_open { name; _ } ->
          common "b" name "op";
          Buffer.add_string b (Printf.sprintf ",\"id\":%d" e.span)
      | Span_close { name; _ } ->
          common "e" name "op";
          Buffer.add_string b (Printf.sprintf ",\"id\":%d" e.span)
      | k ->
          common "i" (kind_name k) "ev";
          Buffer.add_string b ",\"s\":\"t\"");
      (* Full event payload in args so nothing is lost in the viewer. *)
      Buffer.add_string b ",\"args\":{\"json\":\"";
      escape b (event_to_json e);
      Buffer.add_string b "\"}}")
    (events t);
  Buffer.add_string b "]\n";
  Buffer.contents b

(* --- Span nesting check ------------------------------------------------ *)

let check_nesting evs =
  let open_spans : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* span id -> number of open children *)
  let parent_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  List.iter
    (fun (e : Obs.event) ->
      if !violation = None then
        match e.kind with
        | Span_open { parent; name; _ } ->
            if Hashtbl.mem open_spans e.span then
              fail "span %d (%s) opened twice (at=%d)" e.span name e.at
            else if parent <> 0 && not (Hashtbl.mem open_spans parent) then
              fail "span %d (%s) opened under closed parent %d (at=%d)"
                e.span name parent e.at
            else begin
              Hashtbl.replace open_spans e.span 0;
              Hashtbl.replace parent_of e.span parent;
              if parent <> 0 then
                Hashtbl.replace open_spans parent
                  (Hashtbl.find open_spans parent + 1)
            end
        | Span_close { name; _ } -> (
            match Hashtbl.find_opt open_spans e.span with
            | None -> fail "span %d (%s) closed but not open (at=%d)" e.span name e.at
            | Some kids when kids > 0 ->
                fail "span %d (%s) closed with %d open children (at=%d)"
                  e.span name kids e.at
            | Some _ ->
                Hashtbl.remove open_spans e.span;
                let parent = Hashtbl.find parent_of e.span in
                if parent <> 0 then
                  match Hashtbl.find_opt open_spans parent with
                  | Some k -> Hashtbl.replace open_spans parent (k - 1)
                  | None -> ())
        | _ -> ())
    evs;
  (match !violation with
  | None ->
      let leaked =
        Hashtbl.fold (fun id _ acc -> id :: acc) open_spans [] |> List.sort compare
      in
      if leaked <> [] then
        fail "%d span(s) never closed: %s" (List.length leaked)
          (String.concat "," (List.map string_of_int leaked))
  | Some _ -> ());
  !violation

let check t =
  let d = dropped t in
  if d > 0 then
    Some
      (Printf.sprintf
         "trace known-incomplete: %d event(s) dropped on arena overflow \
          (capacity %d per domain) — well-nestedness not checkable"
         d t.capacity)
  else check_nesting (events t)

(* --- Golden diff ------------------------------------------------------- *)

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let diff ~expected ~actual =
  if String.equal expected actual then None
  else begin
    let le = lines expected and la = lines actual in
    let ne = List.length le and na = List.length la in
    let rec first_div i = function
      | e :: es, a :: as_ ->
          if String.equal e a then first_div (i + 1) (es, as_)
          else
            Some
              (Printf.sprintf
                 "trace diverges at event %d:\n  expected: %s\n  actual:   %s\n\
                  (%d expected events, %d actual)"
                 i e a ne na)
      | e :: _, [] ->
          Some
            (Printf.sprintf
               "actual trace truncated at event %d (expected %d events, got %d):\n\
               \  next expected: %s" i ne na e)
      | [], a :: _ ->
          Some
            (Printf.sprintf
               "actual trace has %d extra event(s) past expected end (%d):\n\
               \  first extra: %s" (na - ne) ne a)
      | [], [] ->
          Some "traces differ only in whitespace/newline layout"
    in
    first_div 0 (le, la)
  end
