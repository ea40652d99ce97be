open Support
module Cfg = Ir.Cfg

type t = {
  idom : int array;  (* idom.(l) = immediate dominator; entry maps to itself;
                        -1 for unreachable blocks *)
  entry : Ir.label;
  children : Ir.label list array;
  preorder : int array;  (* -1 for unreachable *)
  max_preorder : int array;
  dom_tree_order : Ir.label array;
  frontier : Ir.label list array;
  depth : int array;
}

(* Cooper–Harvey–Kennedy: intersect walks two fingers up the (partial) idom
   chain using postorder numbers until they meet. *)
let idoms ~scratch cfg =
  let n = Cfg.num_blocks cfg in
  let entry = Cfg.entry cfg in
  let po = Cfg.postorder cfg in
  let po_num = Scratch.acquire_int_array scratch n (-1) in
  Array.iteri (fun i l -> po_num.(l) <- i) po;
  let idom = Scratch.acquire_int_array scratch n (-1) in
  idom.(entry) <- entry;
  let intersect b1 b2 =
    let rec walk b1 b2 =
      if b1 = b2 then b1
      else if po_num.(b1) < po_num.(b2) then walk idom.(b1) b2
      else walk b1 idom.(b2)
    in
    walk b1 b2
  in
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let new_idom = ref (-1) in
          Cfg.iter_preds cfg b (fun p ->
              if idom.(p) <> -1 then
                new_idom := (if !new_idom = -1 then p else intersect !new_idom p));
          if !new_idom <> -1 && idom.(b) <> !new_idom then begin
            idom.(b) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  Scratch.release_int_array scratch po_num;
  idom

(* Everything but the idoms is derived from them and the CFG, in time
   linear in blocks + frontier size. *)
let of_idoms ~scratch cfg idom =
  let n = Cfg.num_blocks cfg in
  let entry = Cfg.entry cfg in
  let po = Cfg.postorder cfg in
  (* Dominator-tree children, kept in reverse-postorder of the child so the
     DFS below is deterministic. *)
  let children = Array.make n [] in
  Array.iter
    (fun b ->
      if b <> entry && idom.(b) <> -1 then
        children.(idom.(b)) <- b :: children.(idom.(b)))
    po;
  (* Preorder / max-preorder numbering of the dominator tree (iterative DFS;
     on the way back up each node learns the largest preorder number reached
     in its subtree — Tarjan's constant-time ancestry test). *)
  let preorder = Scratch.acquire_int_array scratch n (-1) in
  let max_preorder = Scratch.acquire_int_array scratch n (-1) in
  let depth = Scratch.acquire_int_array scratch n 0 in
  (* Every reachable block appears in the dominator tree. *)
  let dom_tree_order = Scratch.acquire_int_array scratch (Array.length po) 0 in
  let counter = ref 0 in
  let rec dfs b d =
    preorder.(b) <- !counter;
    dom_tree_order.(!counter) <- b;
    incr counter;
    depth.(b) <- d;
    List.iter (fun c -> dfs c (d + 1)) children.(b);
    max_preorder.(b) <-
      (match children.(b) with
      | [] -> preorder.(b)
      | _ -> !counter - 1)
  in
  dfs entry 0;
  (* Dominance frontiers (CHK): for each join point, walk each predecessor's
     idom chain up to (excluding) the join's idom. [last_seen] marks the
     blocks whose frontier already contains the current join, so membership
     is O(1) and construction is linear in the total frontier size. *)
  let frontier = Array.make n [] in
  let last_seen = Scratch.acquire_int_array scratch n (-1) in
  Array.iter
    (fun b ->
      if Cfg.num_preds cfg b >= 2 then
        Cfg.iter_preds cfg b (fun p ->
            if idom.(p) <> -1 then begin
              let runner = ref p in
              while !runner <> idom.(b) && last_seen.(!runner) <> b do
                frontier.(!runner) <- b :: frontier.(!runner);
                last_seen.(!runner) <- b;
                runner := idom.(!runner)
              done
            end))
    (Cfg.reverse_postorder cfg);
  Scratch.release_int_array scratch last_seen;
  {
    idom;
    entry;
    children;
    preorder;
    max_preorder;
    dom_tree_order;
    frontier;
    depth;
  }

let compute_into ~scratch (f : Ir.func) cfg =
  ignore f;
  of_idoms ~scratch cfg (idoms ~scratch cfg)

let compute f cfg = compute_into ~scratch:(Scratch.create ()) f cfg


let release scratch t =
  Scratch.release_int_array scratch t.idom;
  Scratch.release_int_array scratch t.preorder;
  Scratch.release_int_array scratch t.max_preorder;
  Scratch.release_int_array scratch t.depth;
  Scratch.release_int_array scratch t.dom_tree_order

let idom t l =
  if l = t.entry || t.idom.(l) = -1 then None else Some t.idom.(l)

let children t l = t.children.(l)

let dominates t a b =
  t.preorder.(a) >= 0 && t.preorder.(b) >= 0
  && t.preorder.(a) <= t.preorder.(b)
  && t.preorder.(b) <= t.max_preorder.(a)

let strictly_dominates t a b = a <> b && dominates t a b

(* A block m splitting an edge a → b has a as its one predecessor, so a is
   its idom. Entry paths map one to one onto the old ones (a → m → b for
   a → b), so m dominates no old block except, possibly, b: exactly when
   b dominates every other predecessor of b (a loop header entered only
   through the split edge). A predecessor that splits another edge into b
   is dominated by b when that edge's source is. Then b's idom is m; every
   other old idom stays. *)
let after_split t cfg (edges : (Ir.label * Ir.label) array) =
  if Array.length edges = 0 then t
  else begin
    let n = Array.length t.idom in
    let idom = Array.make (Cfg.num_blocks cfg) (-1) in
    Array.blit t.idom 0 idom 0 n;
    Array.iteri
      (fun i (src, dst) ->
        let m = n + i in
        idom.(m) <- src;
        let only_way_in =
          Cfg.fold_preds cfg dst
            (fun ok p ->
              ok
              && (p = m || dominates t dst (if p < n then p else fst edges.(p - n))))
            true
        in
        if only_way_in then idom.(dst) <- m)
      edges;
    of_idoms ~scratch:(Scratch.create ()) cfg idom
  end

let preorder t l = t.preorder.(l)
let max_preorder t l = t.max_preorder.(l)
let dom_tree_order t = t.dom_tree_order
let frontier t l = t.frontier.(l)
let depth t l = t.depth.(l)
