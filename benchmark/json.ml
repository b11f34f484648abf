(* Just enough JSON for the benchmark: rendering numbers and objects for
   its own output, and reading BENCHMARK.json and earlier run outputs
   back for [compare] and the smoke check. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- rendering ---- *)

(* Twelve significant digits: every digit a nanosecond clock can
   resolve, without binary-float noise. *)
let num f = if Float.is_finite f then Printf.sprintf "%.12g" f else "0"
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

(* ---- parsing ---- *)

exception Bad of string

let parse (s : string) : t option =
  let i = ref 0 in
  let n = String.length s in
  let peek () = if !i < n then s.[!i] else '\000' in
  let rec ws () =
    if !i < n && (peek () = ' ' || peek () = '\n' || peek () = '\t' || peek () = '\r')
    then (incr i; ws ())
  in
  let expect c = ws (); if peek () = c then incr i else raise (Bad "unexpected") in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise (Bad "unterminated string");
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr i;
          Buffer.add_char b
            (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr i;
        ws ();
        if peek () = '}' then (incr i; Obj [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr i; ws (); members ((k, v) :: acc)
            | '}' -> incr i; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "bad object")
          in
          members []
    | '[' ->
        incr i;
        ws ();
        if peek () = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr i; items (v :: acc)
            | ']' -> incr i; Arr (List.rev (v :: acc))
            | _ -> raise (Bad "bad array")
          in
          items []
    | '"' -> Str (string ())
    | 't' when !i + 4 <= n && String.sub s !i 4 = "true" -> i := !i + 4; Bool true
    | 'f' when !i + 5 <= n && String.sub s !i 5 = "false" -> i := !i + 5; Bool false
    | 'n' when !i + 4 <= n && String.sub s !i 4 = "null" -> i := !i + 4; Null
    | _ ->
        let start = !i in
        let numeric = function
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        in
        while !i < n && numeric s.[!i] do
          incr i
        done;
        (match float_of_string_opt (String.sub s start (!i - start)) with
        | Some f -> Num f
        | None -> raise (Bad "bad number"))
  in
  match value () with
  | v ->
      ws ();
      if !i = n then Some v else None
  | exception Bad _ -> None

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Some (Num f) -> Some f | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_list = function Some (Arr l) -> l | _ -> []
let to_assoc = function Some (Obj kvs) -> kvs | _ -> []
