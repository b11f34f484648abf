(* Serialised counterexamples: the "lnd-scenario v1" format.

   A scenario is one Mcheck configuration plus one Explore schedule and
   an expectation — everything needed to re-execute a synthesised or
   model-checked run deterministically. Violating scenarios found by
   Explore/Synth are saved under test/fixtures/scenarios/ and re-run by
   the regression suite (and the CI explore job), so every
   counterexample the explorers ever surfaced stays reproducible.

   The format is line-based so fixtures diff well:

     lnd-scenario v1
     name: weakened-retract
     note: sticky n=4 f=1 byz=[2,3] ...
     model: sticky
     n: 4
     f: 1
     byzantine: 2,3
     script: 2 = 2,2,2,0
     script: 3 = 2,2,2,0
     value: a
     readers: 1
     reads: 2
     writes: 1
     audit: false
     expect: violation
     schedule: fids 1,2,2,0,...

   Blank lines and lines starting with '#' are ignored; unknown keys are
   an error (a format extension must bump the version line). *)

module Explore = Lnd_runtime.Explore
module Diff = Lnd_parallel.Diff

type expect = Violation | Pass

type t = {
  sc_name : string;
  sc_note : string; (* free text; newlines are not representable *)
  sc_cfg : Mcheck.config;
  sc_expect : expect;
  sc_schedule : Explore.schedule;
}

let magic = "lnd-scenario v1"

(* ---------------- Rendering ---------------- *)

let oneline s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let ints_to l = String.concat "," (List.map string_of_int l)

let schedule_to = function
  | Explore.Fids l -> "fids " ^ ints_to l
  | Explore.Indices l -> "indices " ^ ints_to l
  | Explore.Seed s -> "seed " ^ string_of_int s

let to_string (s : t) : string =
  let c = s.sc_cfg in
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "%s" magic;
  line "name: %s" (oneline s.sc_name);
  if s.sc_note <> "" then line "note: %s" (oneline s.sc_note);
  line "model: %s" (Diff.proto_name c.Mcheck.model);
  line "n: %d" c.Mcheck.n;
  line "f: %d" c.Mcheck.f;
  line "byzantine: %s" (ints_to c.Mcheck.byzantine);
  List.iter
    (fun (pid, g) -> line "script: %d = %s" pid (ints_to g))
    c.Mcheck.scripts;
  line "value: %s" (oneline c.Mcheck.script_value);
  line "readers: %s" (ints_to c.Mcheck.readers);
  line "reads: %d" c.Mcheck.reads;
  line "writes: %d" c.Mcheck.writes;
  line "audit: %b" c.Mcheck.audit;
  line "expect: %s"
    (match s.sc_expect with Violation -> "violation" | Pass -> "pass");
  line "schedule: %s" (schedule_to s.sc_schedule);
  Buffer.contents b

(* ---------------- Parsing ---------------- *)

let ( let* ) = Result.bind

let ints_of s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    try
      Ok
        (List.map
           (fun x -> int_of_string (String.trim x))
           (String.split_on_char ',' s))
    with Failure _ -> Error (Printf.sprintf "bad integer list %S" s)

let int_of key s =
  match int_of_string_opt (String.trim s) with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer for %s: %S" key s)

let schedule_of s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> Error (Printf.sprintf "bad schedule %S" s)
  | Some i -> (
      let tag = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match tag with
      | "fids" ->
          let* l = ints_of rest in
          Ok (Explore.Fids l)
      | "indices" ->
          let* l = ints_of rest in
          Ok (Explore.Indices l)
      | "seed" ->
          let* v = int_of "seed" rest in
          Ok (Explore.Seed v)
      | _ -> Error (Printf.sprintf "unknown schedule kind %S" tag))

let of_string (text : string) : (t, string) result =
  let lines =
    List.filteri (fun _ l -> String.trim l <> "" && (String.trim l).[0] <> '#')
      (String.split_on_char '\n' text)
    |> List.map String.trim
  in
  match lines with
  | [] -> Error "empty scenario"
  | hd :: rest when hd = magic ->
      let cfg = ref Mcheck.default in
      let cfg_scripts = ref [] in
      let name = ref None in
      let note = ref "" in
      let expect = ref None in
      let schedule = ref None in
      let kv l =
        match String.index_opt l ':' with
        | None -> Error (Printf.sprintf "not a key: value line: %S" l)
        | Some i ->
            Ok
              ( String.trim (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
      in
      let field l =
        let* k, v = kv l in
        match k with
        | "name" ->
            name := Some v;
            Ok ()
        | "note" ->
            note := v;
            Ok ()
        | "model" -> (
            match Diff.proto_of_name v with
            | Some m ->
                cfg := { !cfg with Mcheck.model = m };
                Ok ()
            | None -> Error (Printf.sprintf "unknown model %S" v))
        | "n" ->
            let* n = int_of k v in
            cfg := { !cfg with Mcheck.n };
            Ok ()
        | "f" ->
            let* f = int_of k v in
            cfg := { !cfg with Mcheck.f };
            Ok ()
        | "byzantine" ->
            let* l = ints_of v in
            cfg := { !cfg with Mcheck.byzantine = l };
            Ok ()
        | "script" -> (
            match String.index_opt v '=' with
            | None -> Error (Printf.sprintf "bad script line %S" v)
            | Some i ->
                let* pid = int_of "script pid" (String.sub v 0 i) in
                let* g =
                  ints_of (String.sub v (i + 1) (String.length v - i - 1))
                in
                cfg_scripts := !cfg_scripts @ [ (pid, g) ];
                Ok ())
        | "value" ->
            cfg := { !cfg with Mcheck.script_value = v };
            Ok ()
        | "readers" ->
            let* l = ints_of v in
            cfg := { !cfg with Mcheck.readers = l };
            Ok ()
        | "reads" ->
            let* r = int_of k v in
            cfg := { !cfg with Mcheck.reads = r };
            Ok ()
        | "writes" ->
            let* w = int_of k v in
            cfg := { !cfg with Mcheck.writes = w };
            Ok ()
        | "audit" -> (
            match bool_of_string_opt v with
            | Some b ->
                cfg := { !cfg with Mcheck.audit = b };
                Ok ()
            | None -> Error (Printf.sprintf "bad audit flag %S" v))
        | "expect" -> (
            match v with
            | "violation" ->
                expect := Some Violation;
                Ok ()
            | "pass" ->
                expect := Some Pass;
                Ok ()
            | _ -> Error (Printf.sprintf "unknown expectation %S" v))
        | "schedule" ->
            let* s = schedule_of v in
            schedule := Some s;
            Ok ()
        | _ -> Error (Printf.sprintf "unknown key %S" k)
      in
      let* () =
        List.fold_left
          (fun acc l ->
            let* () = acc in
            field l)
          (Ok ()) rest
      in
      let* name =
        match !name with Some n -> Ok n | None -> Error "missing name"
      in
      let* expect =
        match !expect with Some e -> Ok e | None -> Error "missing expect"
      in
      let* schedule =
        match !schedule with Some s -> Ok s | None -> Error "missing schedule"
      in
      let cfg = { !cfg with Mcheck.scripts = !cfg_scripts } in
      let* () = Mcheck.validate cfg in
      Ok
        {
          sc_name = name;
          sc_note = !note;
          sc_cfg = cfg;
          sc_expect = expect;
          sc_schedule = schedule;
        }
  | hd :: _ -> Error (Printf.sprintf "bad magic line %S (want %S)" hd magic)

(* ---------------- Files ---------------- *)

let save (path : string) (s : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string s))

let load (path : string) : (t, string) result =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error e -> Error e

(* ---------------- Execution ---------------- *)

let of_violation ~name (cfg : Mcheck.config) (cx : Explore.counterexample) : t =
  {
    sc_name = name;
    sc_note =
      Printf.sprintf "%s | %s" cx.Explore.cx_note
        (Printexc.to_string cx.Explore.cx_exn);
    sc_cfg = cfg;
    sc_expect = Violation;
    sc_schedule = cx.Explore.cx_schedule;
  }

let run ?max_steps (s : t) : (unit, string) result =
  match Mcheck.replay ?max_steps s.sc_cfg s.sc_schedule with
  | Ok () -> (
      match s.sc_expect with
      | Pass -> Ok ()
      | Violation -> Error "expected a violation, but the check passed")
  | Error e -> (
      match s.sc_expect with
      | Violation -> Ok ()
      | Pass ->
          Error
            (Printf.sprintf "expected a clean run, but the check raised: %s"
               (Printexc.to_string e)))
  | exception Explore.Replay_diverged { at; reason } ->
      Error (Printf.sprintf "replay diverged at step %d: %s" at reason)
