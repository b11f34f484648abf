(* A universal type with named, typed keys.

   Shared registers in this codebase carry [Univ.t] so that a Byzantine
   process can store arbitrary (even ill-typed) content in the registers it
   owns, while correct code projects values back defensively with
   [prj]/[prj_default].

   A value is its key and its payload, one 3-word block; a key carries a
   [Type.Id.t], and a projection asks it whether the value's key has the
   wanted type. So [inj] builds no closure and [prj_default] allocates
   nothing. *)

type 'a key = {
  id : 'a Type.Id.t;
  name : string;
  pp : Format.formatter -> 'a -> unit;
  equal : 'a -> 'a -> bool;
}

type t = U : 'a key * 'a -> t

let key ~name ~pp ~equal = { id = Type.Id.make (); name; pp; equal }
let inj (k : 'a key) (x : 'a) : t = U (k, x)

let prj (type a) (k : a key) (U (k', x) : t) : a option =
  match Type.Id.provably_equal k.id k'.id with
  | Some Type.Equal -> Some x
  | None -> None

(* Defensive projection: ill-typed content (e.g. garbage written by a
   Byzantine owner) is read as [default]. *)
let prj_default (type a) (k : a key) ~(default : a) (U (k', x) : t) : a =
  match Type.Id.provably_equal k.id k'.id with
  | Some Type.Equal -> x
  | None -> default

let key_name (U (k, _) : t) = k.name
let pp fmt (U (k, x) : t) = k.pp fmt x

let equal (U (ka, a) : t) (U (kb, b) : t) =
  match Type.Id.provably_equal ka.id kb.id with
  | Some Type.Equal -> ka.equal a b
  | None -> false

(* Ready-made keys for common payloads. *)

let unit : unit key =
  key ~name:"unit" ~pp:(fun fmt () -> Format.fprintf fmt "()")
    ~equal:(fun () () -> true)

let int : int key = key ~name:"int" ~pp:Format.pp_print_int ~equal:Int.equal

let string : string key =
  key ~name:"string"
    ~pp:(fun fmt s -> Format.fprintf fmt "%S" s)
    ~equal:String.equal

(* A catch-all "garbage" payload for adversaries that want to write
   something no correct decoder accepts. *)
let garbage : string key =
  key ~name:"garbage"
    ~pp:(fun fmt s -> Format.fprintf fmt "garbage(%S)" s)
    ~equal:String.equal
