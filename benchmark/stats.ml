(* Wall clock and order statistics.

   All timing goes through bechamel's monotonic clock (CLOCK_MONOTONIC,
   nanoseconds, no allocation). *)

let now_ns () : int64 = Monotonic_clock.now ()
let seconds_between (a : int64) (b : int64) = Int64.to_float (Int64.sub b a) /. 1e9
let seconds_since t0 = seconds_between t0 (now_ns ())
let ms_between a b = seconds_between a b *. 1e3

(* A growable sample of floats. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len
let count s = s.len

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile; 0 for an empty sample (an operation kind a
   workload never runs). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* First, second and third quartile as Python's
   [statistics.quantiles(xs, n=4)] computes them (the "exclusive"
   method), so spreads printed here match a Python recomputation. A
   single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b
