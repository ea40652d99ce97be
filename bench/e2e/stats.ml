(* Order statistics over timing samples. *)

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float ((p /. 100. *. float (n - 1)) +. 0.5)))

let median l = percentile (sorted_of_list l) 50.

(* The three cut points Python's [statistics.quantiles(data, n=4)] gives
   with its default exclusive method, in which the spreads behind
   BENCHMARK.json's bounds are stated. Needs at least two values. *)
let quartiles l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n < 2 then
    let x = if n = 1 then a.(0) else nan in
    (x, x, x)
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* A growable float buffer: the timed loops record one sample per item
   without allocating a list cell each time. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let get t i = t.a.(i)

  let to_list t = Array.to_list (Array.sub t.a 0 t.n)
end
