(* Deterministic, splittable PRNG (SplitMix64).

   Every source of randomness in the simulator flows through one of these
   generators so that whole executions — including adversary behaviour and
   scheduling — replay exactly from a seed.

   The state lives unboxed in 8 bytes, so a draw ([int], [bool]) allocates
   nothing: a mutable [int64] field would box the new state on every
   draw, and a returned [int64] its result. *)

type t = Bytes.t

(* The state, in native byte order: only this module reads it. *)
external get_state : t -> int -> int64 = "%caml_bytes_get64u"
external set_state : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state (s : int64) : t =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create (seed : int) : t = of_state (Int64.of_int seed)

let golden_gamma = 0x9E3779B97F4A7C15L

(* Advance the state and mix it into the next output. Inlined, so the
   callers below keep the output unboxed. *)
let[@inline always] mix (t : t) : int64 =
  let open Int64 in
  let z = add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next64 (t : t) : int64 = mix t

let split (t : t) : t = of_state (mix t)

let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.to_int (mix t) land max_int in
  x mod bound

let bool (t : t) : bool = Int64.logand (mix t) 1L = 1L

let pick (t : t) (xs : 'a list) : 'a =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let pick_arr (t : t) (xs : 'a array) : 'a =
  if Array.length xs = 0 then invalid_arg "Rng.pick_arr: empty array";
  xs.(int t (Array.length xs))

let shuffle (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* A fresh seed derived from this generator, for spawning independent
   sub-streams identified by an integer salt. *)
let derive (t : t) (salt : int) : t =
  of_state (Int64.logxor (mix t) (Int64.of_int (salt * 0x2545F491)))
