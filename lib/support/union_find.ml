type t = {
  parent : int array;
  rank : int array;
}

let create n =
  if n < 0 then invalid_arg "Union_find.create";
  { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

let length t = Array.length t.parent

let grow t n =
  let old = length t in
  if n < old then invalid_arg "Union_find.grow";
  if n = old then t
  else begin
    let parent = Array.init n (fun i -> if i < old then t.parent.(i) else i) in
    let rank = Array.make n 0 in
    Array.blit t.rank 0 rank 0 old;
    { parent; rank }
  end

(* Path halving: every element on the search path is re-pointed to its
   grandparent, which keeps the amortized bound without recursion. *)
let find t x =
  let rec loop x =
    let p = t.parent.(x) in
    if p = x then x
    else begin
      let g = t.parent.(p) in
      t.parent.(x) <- g;
      loop g
    end
  in
  loop x

let union t x y =
  let rx = find t x and ry = find t y in
  if rx = ry then rx
  else begin
    let rx, ry =
      if t.rank.(rx) < t.rank.(ry) then ry, rx else rx, ry
    in
    t.parent.(ry) <- rx;
    if t.rank.(rx) = t.rank.(ry) then t.rank.(rx) <- t.rank.(rx) + 1;
    rx
  end

let same t x y = find t x = find t y

let count_sets t =
  let n = length t in
  let c = ref 0 in
  for i = 0 to n - 1 do
    if find t i = i then incr c
  done;
  !c

(* Members are bucketed by root in one pass from the top, so each bucket
   comes out ascending; walking the roots from the top down then conses
   the groups in ascending root order. *)
let groups t =
  let n = length t in
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find t i in
    members.(r) <- i :: members.(r)
  done;
  let acc = ref [] in
  for r = n - 1 downto 0 do
    match members.(r) with
    | [] | [ _ ] -> ()
    | m -> acc := (r, m) :: !acc
  done;
  !acc
