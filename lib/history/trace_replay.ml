module Obs = Lnd_obs.Obs

(* Fold span opens/closes into history entries through a per-spec parser:
   [parse_op name arg] recognises the spec's operations, [parse_res op
   result] decodes the close payload. A close that is aborted, missing,
   or unparseable leaves the entry incomplete. *)
let spans_to_history ~parse_op ~parse_res (evs : Obs.event list) :
    ('op, 'res) History.t =
  let open_entries : (int, ('op, 'res) History.entry) Hashtbl.t =
    Hashtbl.create 64
  in
  let entries = ref [] in
  List.iter
    (fun (e : Obs.event) ->
      match e.kind with
      | Span_open { name; arg; _ } -> (
          match parse_op name arg with
          | Some op ->
              let entry = { History.pid = e.pid; op; inv = e.at; ret = None } in
              Hashtbl.replace open_entries e.span entry;
              entries := entry :: !entries
          | None -> ())
      | Span_close { result; aborted; _ } -> (
          match Hashtbl.find_opt open_entries e.span with
          | None -> ()
          | Some entry ->
              Hashtbl.remove open_entries e.span;
              if not aborted then
                match Option.bind result (parse_res entry.History.op) with
                | Some res -> entry.History.ret <- Some (res, e.at)
                | None -> ())
      | _ -> ())
    evs;
  { History.entries = !entries }

let value_of s =
  (* "v:<value>" *)
  if String.length s >= 2 && String.sub s 0 2 = "v:" then
    Some (String.sub s 2 (String.length s - 2))
  else None

let verifiable_history evs =
  let open Spec.Verifiable_spec in
  spans_to_history evs
    ~parse_op:(fun name arg ->
      match (name, arg) with
      | "WRITE", Some v -> Some (Write v)
      | "READ", _ -> Some Read
      | "SIGN", Some v -> Some (Sign v)
      | "VERIFY", Some v -> Some (Verify v)
      | _ -> None)
    ~parse_res:(fun op result ->
      match op with
      | Write _ -> if result = "done" then Some Done else None
      | Read -> Option.map (fun v -> Val v) (value_of result)
      | Sign _ -> Option.map (fun b -> Signed b) (bool_of_string_opt result)
      | Verify _ -> Option.map (fun b -> Verified b) (bool_of_string_opt result))

let sticky_history evs =
  let open Spec.Sticky_spec in
  spans_to_history evs
    ~parse_op:(fun name arg ->
      match (name, arg) with
      | "WRITE", Some v -> Some (Write v)
      | "READ", _ -> Some Read
      | _ -> None)
    ~parse_res:(fun op result ->
      match op with
      | Write _ -> if result = "done" then Some Done else None
      | Read ->
          if result = "\xe2\x8a\xa5" (* ⊥ *) then Some (Val None)
          else Option.map (fun v -> Val (Some v)) (value_of result))

let testorset_history evs =
  let open Spec.Testorset_spec in
  spans_to_history evs
    ~parse_op:(fun name _arg ->
      match name with "SET" -> Some Set | "TEST" -> Some Test | _ -> None)
    ~parse_res:(fun op result ->
      match op with
      | Set -> if result = "done" then Some Done else None
      | Test -> Option.map (fun b -> Bit b) (int_of_string_opt result))
