(* Unit and property tests for lib/support. *)

open Helpers

let test_uf_basic () =
  let uf = Support.Union_find.create 10 in
  checki "fresh singletons" 10 (Support.Union_find.count_sets uf);
  checkb "not same initially" false (Support.Union_find.same uf 0 1);
  ignore (Support.Union_find.union uf 0 1);
  checkb "same after union" true (Support.Union_find.same uf 0 1);
  ignore (Support.Union_find.union uf 1 2);
  checkb "transitive" true (Support.Union_find.same uf 0 2);
  checki "sets merged" 8 (Support.Union_find.count_sets uf);
  let r = Support.Union_find.union uf 0 0 in
  checki "self union is stable" (Support.Union_find.find uf 0) r

let test_uf_groups () =
  let uf = Support.Union_find.create 6 in
  ignore (Support.Union_find.union uf 0 3);
  ignore (Support.Union_find.union uf 3 5);
  ignore (Support.Union_find.union uf 1 2);
  let groups = Support.Union_find.groups uf in
  checki "two groups" 2 (List.length groups);
  let members = List.map snd groups |> List.concat |> List.sort compare in
  check Alcotest.(list int) "members" [ 0; 1; 2; 3; 5 ] members;
  List.iter
    (fun (_, ms) ->
      check Alcotest.(list int) "sorted members" (List.sort compare ms) ms)
    groups

let test_uf_grow () =
  let uf = Support.Union_find.create 3 in
  ignore (Support.Union_find.union uf 0 2);
  let uf = Support.Union_find.grow uf 6 in
  checkb "old sets preserved" true (Support.Union_find.same uf 0 2);
  checkb "new elements are singletons" false (Support.Union_find.same uf 3 4);
  checki "length" 6 (Support.Union_find.length uf)

(* Property: union-find agrees with a naive equivalence closure. *)
let prop_uf_matches_naive =
  QCheck.Test.make ~count:200 ~name:"union-find matches naive closure"
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Support.Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Support.Union_find.union uf a b)) pairs;
      (* naive: repeated relabeling *)
      let label = Array.init 20 (fun i -> i) in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min label.(a) label.(b) in
            if label.(a) <> m || label.(b) <> m then begin
              let la = label.(a) and lb = label.(b) in
              Array.iteri
                (fun i l -> if l = la || l = lb then label.(i) <- m)
                label;
              changed := true
            end)
          pairs
      done;
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> Support.Union_find.same uf i j = (label.(i) = label.(j)))
            (List.init 20 Fun.id))
        (List.init 20 Fun.id))

let test_bitset_basic () =
  let s = Support.Bitset.create 70 in
  checkb "empty" true (Support.Bitset.is_empty s);
  Support.Bitset.add s 0;
  Support.Bitset.add s 69;
  Support.Bitset.add s 33;
  checkb "mem 0" true (Support.Bitset.mem s 0);
  checkb "mem 69" true (Support.Bitset.mem s 69);
  checkb "not mem 1" false (Support.Bitset.mem s 1);
  checki "cardinal" 3 (Support.Bitset.cardinal s);
  check Alcotest.(list int) "elements sorted" [ 0; 33; 69 ]
    (Support.Bitset.elements s);
  Support.Bitset.remove s 33;
  checki "cardinal after remove" 2 (Support.Bitset.cardinal s);
  Support.Bitset.clear s;
  checkb "cleared" true (Support.Bitset.is_empty s)

let test_bitset_ops () =
  let a = Support.Bitset.of_list 16 [ 1; 2; 3 ] in
  let b = Support.Bitset.of_list 16 [ 3; 4 ] in
  let u = Support.Bitset.copy a in
  let changed = Support.Bitset.union_into ~dst:u b in
  checkb "union changed" true changed;
  check Alcotest.(list int) "union" [ 1; 2; 3; 4 ] (Support.Bitset.elements u);
  checkb "union again unchanged" false (Support.Bitset.union_into ~dst:u b);
  let d = Support.Bitset.copy a in
  Support.Bitset.diff_into ~dst:d b;
  check Alcotest.(list int) "diff" [ 1; 2 ] (Support.Bitset.elements d);
  let i = Support.Bitset.copy a in
  Support.Bitset.inter_into ~dst:i b;
  check Alcotest.(list int) "inter" [ 3 ] (Support.Bitset.elements i);
  checkb "equal self" true (Support.Bitset.equal a a);
  checkb "not equal" false (Support.Bitset.equal a b)

let test_bitset_bounds () =
  let s = Support.Bitset.create 8 in
  Alcotest.check_raises "out of range add" (Invalid_argument "Bitset: index out of range")
    (fun () -> Support.Bitset.add s 8);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Support.Bitset.mem s (-1)))

(* Differential: every Bitset operation against Iset, at capacities that put
   elements in the byte tail, on word boundaries and in the word prefix. *)
let bitset_capacities = [| 0; 1; 7; 8; 9; 63; 64; 65; 127; 200 |]

let prop_bitset_matches_set =
  QCheck.Test.make ~count:500 ~name:"bitset matches Set on random ops"
    QCheck.(
      triple (int_bound (Array.length bitset_capacities - 1))
        (list (pair bool (int_bound 255)))
        (list (pair bool (int_bound 255))))
    (fun (ci, ops_a, ops_b) ->
      let module B = Support.Bitset in
      let module S = Support.Iset in
      let cap = bitset_capacities.(ci) in
      let build ops =
        let s = B.create cap in
        let m =
          if cap = 0 then S.empty
          else
            List.fold_left
              (fun m (add, x) ->
                let x = x mod cap in
                if add then (B.add s x; S.add x m) else (B.remove s x; S.remove x m))
              S.empty ops
        in
        (s, m)
      in
      let a, ma = build ops_a and b, mb = build ops_b in
      let all = List.init cap Fun.id in
      let agrees s m =
        let seen = ref [] in
        B.iter (fun i -> seen := i :: !seen) s;
        List.rev !seen = S.elements m
        && B.elements s = S.elements m
        && B.cardinal s = S.cardinal m
        && B.is_empty s = S.is_empty m
        && List.for_all (fun i -> B.mem s i = S.mem i m) all
        && B.equal s (B.of_list cap (S.elements m))
      in
      let with_copy f =
        let c = B.copy a in
        let r = f c in
        (c, r)
      in
      let u, changed = with_copy (fun c -> B.union_into ~dst:c b) in
      let i, () = with_copy (fun c -> B.inter_into ~dst:c b) in
      let d, () = with_copy (fun c -> B.diff_into ~dst:c b) in
      let full = B.copy b in
      B.fill full;
      let complement = B.create cap in
      B.fill complement;
      B.diff_into ~dst:complement a;
      let blitted = B.of_list cap (S.elements mb) in
      B.blit ~src:a ~dst:blitted;
      let independent = B.copy a in
      if cap > 0 then B.add independent (cap - 1);
      agrees a ma && agrees b mb
      && agrees u (S.union ma mb)
      && changed = not (S.subset mb ma)
      && agrees i (S.inter ma mb)
      && agrees d (S.diff ma mb)
      && B.equal a b = S.equal ma mb
      && B.equal a (B.copy a)
      && agrees full (S.of_list all)
      && agrees complement (S.diff (S.of_list all) ma)
      && agrees blitted ma
      && agrees a ma
      && B.memory_bytes a = (cap + 7) / 8
      && B.capacity a = cap)

let test_bit_matrix () =
  let m = Support.Bit_matrix.create 10 in
  checkb "empty" false (Support.Bit_matrix.get m 3 7);
  Support.Bit_matrix.set m 3 7;
  checkb "set" true (Support.Bit_matrix.get m 3 7);
  checkb "symmetric" true (Support.Bit_matrix.get m 7 3);
  Support.Bit_matrix.set m 7 3;
  checki "count ignores duplicates" 1 (Support.Bit_matrix.count m);
  Support.Bit_matrix.set m 0 0;
  checkb "diagonal ignored" false (Support.Bit_matrix.get m 0 0);
  checki "memory is triangular" ((10 * 9 / 2 + 7) / 8)
    (Support.Bit_matrix.memory_bytes m);
  Support.Bit_matrix.clear m;
  checki "cleared" 0 (Support.Bit_matrix.count m)

(* Property: bit matrix equals a reference pair set. *)
let prop_bit_matrix =
  QCheck.Test.make ~count:200 ~name:"bit matrix matches pair set"
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let m = Support.Bit_matrix.create 15 in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (a, b) ->
          Support.Bit_matrix.set m a b;
          if a <> b then Hashtbl.replace reference (min a b, max a b) ())
        pairs;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Support.Bit_matrix.get m a b
              = Hashtbl.mem reference (min a b, max a b))
            (List.init 15 Fun.id))
        (List.init 15 Fun.id))

(* Oracle for [Bit_matrix.union_row]: Chaitin's row OR bit by bit, two
   checked probes per node, as [Baseline.Igraph.merge] once did it. *)
let union_row_oracle m ~into:a b =
  let added = ref 0 in
  if a <> b then
    for x = 0 to Support.Bit_matrix.size m - 1 do
      if x <> a && Support.Bit_matrix.get m b x && not (Support.Bit_matrix.get m a x)
      then begin
        Support.Bit_matrix.set m a x;
        incr added
      end
    done;
  !added

let bit_matrix_sizes = [| 0; 1; 2; 7; 8; 9; 15; 16; 17; 63; 64; 65; 127; 128; 129 |]

(* A random matrix of size [n] with pair density [pct]%, twice: one for
   the row operation under test, one for the oracle. *)
let random_matrices ~seed ~pct n =
  let st = Random.State.make [| seed |] in
  let m = Support.Bit_matrix.create n and o = Support.Bit_matrix.create n in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if Random.State.int st 100 < pct then begin
        Support.Bit_matrix.set m i j;
        Support.Bit_matrix.set o i j
      end
    done
  done;
  (m, o)

let same_pairs m o =
  let n = Support.Bit_matrix.size m in
  List.for_all
    (fun i ->
      List.for_all
        (fun j -> Support.Bit_matrix.get m i j = Support.Bit_matrix.get o i j)
        (List.init n Fun.id))
    (List.init n Fun.id)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* Property: [union_row] leaves the same matrix as the oracle, for a row
   above, below and equal to its target, and returns exactly the growth
   of [count]; rows out of range raise. *)
let prop_union_row =
  QCheck.Test.make ~count:300 ~name:"bit matrix union_row matches bit-by-bit oracle"
    QCheck.(
      quad (int_bound (Array.length bit_matrix_sizes - 1)) (int_bound 100_000)
        (int_bound 100) (pair (int_bound 1000) (int_bound 1000)))
    (fun (si, seed, pct, (ra, rb)) ->
      let module M = Support.Bit_matrix in
      let n = bit_matrix_sizes.(si) in
      let cases =
        if n = 0 then []
        else
          let a = ra mod n and b = rb mod n in
          let lo = min a b and hi = max a b in
          let distinct = if lo = hi then [] else [ (lo, hi); (hi, lo) ] in
          (a, a) :: distinct
      in
      List.for_all
        (fun (a, b) ->
          let m, o = random_matrices ~seed ~pct n in
          let before = M.count m in
          let added = M.union_row m ~into:a b in
          let expected = union_row_oracle o ~into:a b in
          added = expected && M.count m - before = added && same_pairs m o)
        cases
      && (let m = M.create n in
          raises_invalid (fun () -> M.union_row m ~into:n 0)
          && raises_invalid (fun () -> M.union_row m ~into:0 n)
          && raises_invalid (fun () -> M.union_row m ~into:(-1) 0)
          && raises_invalid (fun () -> M.union_row m ~into:0 (-1))
          && raises_invalid (fun () -> M.row_count m n)
          && raises_invalid (fun () -> M.iter_row ignore m (-1))))

(* Property: [iter_row] yields exactly the [get]-scan of each row, in
   increasing order, and [row_count] its length. *)
let prop_row_walk =
  QCheck.Test.make ~count:300 ~name:"bit matrix row walk matches get scan"
    QCheck.(
      triple (int_bound (Array.length bit_matrix_sizes - 1)) (int_bound 100_000)
        (int_bound 100))
    (fun (si, seed, pct) ->
      let module M = Support.Bit_matrix in
      let n = bit_matrix_sizes.(si) in
      let m, _ = random_matrices ~seed ~pct n in
      List.for_all
        (fun i ->
          let walked = ref [] in
          M.iter_row (fun x -> walked := x :: !walked) m i;
          let scanned = List.filter (fun x -> M.get m i x) (List.init n Fun.id) in
          List.rev !walked = scanned && M.row_count m i = List.length scanned)
        (List.init n Fun.id))

(* Property: [union_set] leaves the same matrix as a [set] per element of
   the set (through the map when there is one) and returns the growth of
   [count]; a map that is too short or points past the matrix raises. *)
let prop_union_set =
  QCheck.Test.make ~count:300 ~name:"bit matrix union_set matches per-pair set"
    QCheck.(
      quad (int_bound (Array.length bit_matrix_sizes - 1)) (int_bound 100_000)
        (pair (int_bound 100) (int_bound 100)) (pair (int_bound 1000) bool))
    (fun (si, seed, (pct, set_pct), (ri, mapped)) ->
      let module M = Support.Bit_matrix in
      let n = bit_matrix_sizes.(si) in
      n = 0
      ||
      let m, o = random_matrices ~seed ~pct n in
      let st = Random.State.make [| seed; 1 |] in
      (* Mapped: a set over 2n registers, half of them non-members. *)
      let cap = if mapped then 2 * n else n in
      let map =
        Array.init cap (fun r -> if r mod 2 = 0 then (r / 2 * 7) mod n else -1)
      in
      let s = Support.Bitset.create cap in
      for r = 0 to cap - 1 do
        if Random.State.int st 100 < set_pct then Support.Bitset.add s r
      done;
      let i = ri mod n in
      let before = M.count m in
      let added = if mapped then M.union_set ~map m i s else M.union_set m i s in
      let expected = ref 0 in
      Support.Bitset.iter
        (fun r ->
          let x = if mapped then map.(r) else r in
          if x >= 0 && x <> i && not (M.get o i x) then begin
            M.set o i x;
            incr expected
          end)
        s;
      added = !expected
      && M.count m - before = added
      && same_pairs m o
      && raises_invalid (fun () -> M.union_set m n s)
      && raises_invalid (fun () -> M.union_set m i (Support.Bitset.create (n + 1)))
      && raises_invalid (fun () -> M.union_set ~map:[||] m i (Support.Bitset.create 1))
      && raises_invalid (fun () ->
             M.union_set ~map:[| n |] m i (Support.Bitset.of_list 1 [ 0 ])))

(* Property: [Bitset.iter], and a loop over [Bitset.next], yield in
   increasing order exactly what a [mem] scan finds, on stand-alone sets
   and on every row of a [Bitset.Matrix]. *)
let prop_bitset_iter =
  let capacities = [| 0; 1; 7; 8; 9; 63; 64; 65; 127; 128; 129; 1000 |] in
  QCheck.Test.make ~count:300 ~name:"bitset iter and next match mem scan"
    QCheck.(triple (int_bound (Array.length capacities - 1)) (int_bound 100_000) (int_bound 100))
    (fun (ci, seed, pct) ->
      let module B = Support.Bitset in
      let cap = capacities.(ci) in
      let st = Random.State.make [| seed |] in
      let iterated s =
        let acc = ref [] in
        B.iter (fun x -> acc := x :: !acc) s;
        List.rev !acc
      in
      let scanned s = List.filter (B.mem s) (List.init cap Fun.id) in
      let set = B.create cap in
      for x = 0 to cap - 1 do
        if Random.State.int st 100 < pct then B.add set x
      done;
      let rows = 3 in
      let m =
        B.Matrix.on_buffer (Bytes.create (rows * ((cap + 7) / 8))) ~rows cap
      in
      for r = 0 to rows - 1 do
        for x = 0 to cap - 1 do
          if Random.State.int st 100 < pct then B.Matrix.add m r x
        done
      done;
      let stepped s =
        let rec from i acc =
          match B.next s i with
          | -1 -> List.rev acc
          | x -> from (x + 1) (x :: acc)
        in
        from 0 []
      in
      let agree s =
        let expected = scanned s in
        iterated s = expected && stepped s = expected && B.next s (cap + 8) = -1
      in
      agree set && List.for_all (fun r -> agree (B.Matrix.row m r)) (List.init rows Fun.id))

let test_vec () =
  let v = Support.Vec.create () in
  checki "empty" 0 (Support.Vec.length v);
  for i = 0 to 99 do
    Support.Vec.push v i
  done;
  checki "length" 100 (Support.Vec.length v);
  checki "get" 42 (Support.Vec.get v 42);
  Support.Vec.set v 42 (-1);
  checki "set" (-1) (Support.Vec.get v 42);
  checki "to_list length" 100 (List.length (Support.Vec.to_list v));
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Support.Vec.get v 100))

let test_vec_recycle () =
  let v = Support.Vec.create () in
  for i = 0 to 9 do
    Support.Vec.push v i
  done;
  let cap = Support.Vec.capacity v in
  checkb "capacity covers length" true (cap >= 10);
  Support.Vec.clear v;
  checki "clear empties" 0 (Support.Vec.length v);
  checki "clear keeps store" cap (Support.Vec.capacity v);
  Support.Vec.push v 7;
  checki "push after clear restarts at 0" 7 (Support.Vec.get v 0);
  Support.Vec.ensure_capacity v ~dummy:0 100;
  checkb "ensure_capacity grows" true (Support.Vec.capacity v >= 100);
  checki "ensure_capacity keeps elements" 7 (Support.Vec.get v 0);
  checki "ensure_capacity keeps length" 1 (Support.Vec.length v);
  let before = Support.Vec.capacity v in
  Support.Vec.ensure_capacity v ~dummy:0 5;
  checki "ensure_capacity never shrinks" before (Support.Vec.capacity v)

let test_csr () =
  (* 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {2, 2} (duplicates kept). *)
  let edges = [ (0, 1); (0, 2); (1, 2); (3, 2); (3, 2) ] in
  let g =
    Support.Csr.build ~num_nodes:4 (fun emit ->
        List.iter (fun (src, dst) -> emit ~src ~dst) edges)
  in
  checki "num_nodes" 4 (Support.Csr.num_nodes g);
  checki "num_edges" 5 (Support.Csr.num_edges g);
  checki "degree 0" 2 (Support.Csr.degree g 0);
  checki "degree 2" 0 (Support.Csr.degree g 2);
  checki "get" 2 (Support.Csr.get g 0 1);
  check Alcotest.(list int) "row emission order" [ 2; 2 ]
    (Support.Csr.row_list g 3);
  checki "fold_row" 3 (Support.Csr.fold_row g 0 ( + ) 0);
  let seen = ref [] in
  Support.Csr.iter_row g 0 (fun v -> seen := v :: !seen);
  check Alcotest.(list int) "iter_row" [ 1; 2 ] (List.rev !seen);
  let t = Support.Csr.transpose g in
  check Alcotest.(list int) "transposed row sorted" [ 0; 1; 3; 3 ]
    (Support.Csr.row_list t 2);
  check Alcotest.(list int) "transposed row of 1" [ 0 ] (Support.Csr.row_list t 1);
  Alcotest.check_raises "get out of row"
    (Invalid_argument "Csr.get: index out of row") (fun () ->
      ignore (Support.Csr.get g 2 0))

(* Property: CSR build + transpose agree with a naive edge-set model. *)
let prop_csr_matches_model =
  QCheck.Test.make ~count:200 ~name:"csr matches edge-list model"
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let n = 10 in
      let g =
        Support.Csr.build ~num_nodes:n (fun emit ->
            List.iter (fun (src, dst) -> emit ~src ~dst) edges)
      in
      let t = Support.Csr.transpose g in
      let row_of u = List.sort compare (Support.Csr.row_list g u) in
      let model_row u =
        List.sort compare (List.filter_map
          (fun (s, d) -> if s = u then Some d else None) edges)
      in
      let trow_of v = List.sort compare (Support.Csr.row_list t v) in
      let model_trow v =
        List.sort compare (List.filter_map
          (fun (s, d) -> if d = v then Some s else None) edges)
      in
      Support.Csr.num_edges g = List.length edges
      && Support.Csr.num_edges t = List.length edges
      && List.for_all
           (fun u -> row_of u = model_row u && trow_of u = model_trow u)
           (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "union-find basics" `Quick test_uf_basic;
    Alcotest.test_case "union-find groups" `Quick test_uf_groups;
    Alcotest.test_case "union-find grow" `Quick test_uf_grow;
    QCheck_alcotest.to_alcotest prop_uf_matches_naive;
    Alcotest.test_case "bitset basics" `Quick test_bitset_basic;
    Alcotest.test_case "bitset set operations" `Quick test_bitset_ops;
    Alcotest.test_case "bitset bounds checking" `Quick test_bitset_bounds;
    QCheck_alcotest.to_alcotest prop_bitset_matches_set;
    Alcotest.test_case "bit matrix" `Quick test_bit_matrix;
    QCheck_alcotest.to_alcotest prop_bit_matrix;
    QCheck_alcotest.to_alcotest prop_union_row;
    QCheck_alcotest.to_alcotest prop_row_walk;
    QCheck_alcotest.to_alcotest prop_union_set;
    QCheck_alcotest.to_alcotest prop_bitset_iter;
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "vec recycling" `Quick test_vec_recycle;
    Alcotest.test_case "csr adjacency" `Quick test_csr;
    QCheck_alcotest.to_alcotest prop_csr_matches_model;
  ]
