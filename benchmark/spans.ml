(* The benchmark's own spans: one around each call it makes into a layer
   during a traced pass (plus the operation spans a domains session
   stamps), kept in memory and written out as JSONL at exit. A span's
   self time is its duration minus what its children cover. *)

type t = { origin : int64; mutable next : int; mutable lines : string list }

let create () = { origin = Stats.now_ns (); next = 1; lines = [] }

(* Reserve an id before the span's children are recorded. *)
let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let us t ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3

let record t ?(id = fresh t) ?(parent = 0) ?(pid = -1) ?(unit_index = -1) ~name
    ~start ~stop () =
  t.lines <-
    Json.obj
      [
        ("id", string_of_int id);
        ("parent", string_of_int parent);
        ("name", Json.str name);
        ("pid", string_of_int pid);
        ("unit", string_of_int unit_index);
        ("start_us", Json.num (us t start));
        ("dur_us", Json.num (us t stop -. us t start));
      ]
    :: t.lines

let write t path =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev t.lines);
  close_out oc
