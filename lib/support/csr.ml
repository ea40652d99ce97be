type t = {
  off : int array; (* length num_nodes + 1; row u is dat.[off.(u) .. off.(u+1)-1] *)
  dat : int array;
}

let num_nodes t = Array.length t.off - 1
let num_edges t = Array.length t.dat

let build ~num_nodes produce =
  let off = Array.make (num_nodes + 1) 0 in
  (* Pass 1: count. off.(u+1) accumulates the out-degree of u. *)
  produce (fun ~src ~dst:_ -> off.(src + 1) <- off.(src + 1) + 1);
  for u = 1 to num_nodes do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let dat = Array.make off.(num_nodes) 0 in
  (* Pass 2: fill, using a moving cursor per row. *)
  let cursor = Array.copy off in
  produce (fun ~src ~dst ->
      dat.(cursor.(src)) <- dst;
      cursor.(src) <- cursor.(src) + 1);
  { off; dat }

let degree t u = t.off.(u + 1) - t.off.(u)

let get t u i =
  if i < 0 || i >= degree t u then invalid_arg "Csr.get: index out of row";
  t.dat.(t.off.(u) + i)

let iter_row t u f =
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    f t.dat.(i)
  done

let fold_row t u f init =
  let acc = ref init in
  for i = t.off.(u) to t.off.(u + 1) - 1 do
    acc := f !acc t.dat.(i)
  done;
  !acc

let row_list t u =
  let acc = ref [] in
  for i = t.off.(u + 1) - 1 downto t.off.(u) do
    acc := t.dat.(i) :: !acc
  done;
  !acc

let equal a b =
  let rec same xs ys i =
    i < 0 || (xs.(i) = ys.(i) && same xs ys (i - 1))
  in
  Array.length a.off = Array.length b.off
  && Array.length a.dat = Array.length b.dat
  && same a.off b.off (Array.length a.off - 1)
  && same a.dat b.dat (Array.length a.dat - 1)

let transpose t =
  let n = num_nodes t in
  (* Emitting edges (dst, src) in increasing-u order fills each reversed
     row with sources in increasing order. *)
  build ~num_nodes:n (fun emit ->
      for u = 0 to n - 1 do
        iter_row t u (fun v -> emit ~src:v ~dst:u)
      done)
