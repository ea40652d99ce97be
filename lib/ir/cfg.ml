type t = {
  entry : Mir.label;
  succs : Support.Csr.t; (* rows for every block, terminator order, deduped *)
  preds : Support.Csr.t; (* edges from reachable sources only, increasing order *)
  reachable : bool array;
  postorder : Mir.label array;
  rpo : Mir.label array;
  postorder_index : int array; (* position in [postorder]; -1 if unreachable *)
}

(* Everything but the successor rows is derived from them and the entry:
   the depth-first orders, reachability and the predecessor rows. *)
let of_succs ~entry succs =
  let n = Support.Csr.num_nodes succs in
  let reachable = Array.make n false in
  let order = Array.make n 0 in
  let order_len = ref 0 in
  (* Iterative DFS producing a postorder; the explicit stack pairs each
     open node with a cursor into its CSR successor row. *)
  let stack_node = Array.make n 0 in
  let stack_next = Array.make n 0 in
  let sp = ref 0 in
  let push l =
    reachable.(l) <- true;
    stack_node.(!sp) <- l;
    stack_next.(!sp) <- 0;
    incr sp
  in
  push entry;
  while !sp > 0 do
    let top = !sp - 1 in
    let l = stack_node.(top) in
    let i = stack_next.(top) in
    if i < Support.Csr.degree succs l then begin
      stack_next.(top) <- i + 1;
      let s = Support.Csr.get succs l i in
      if not reachable.(s) then push s
    end
    else begin
      decr sp;
      order.(!order_len) <- l;
      incr order_len
    end
  done;
  let postorder = Array.sub order 0 !order_len in
  let rpo =
    Array.init !order_len (fun i -> postorder.(!order_len - 1 - i))
  in
  let postorder_index = Array.make n (-1) in
  Array.iteri (fun i l -> postorder_index.(l) <- i) postorder;
  (* Emitting reversed edges in increasing source order leaves each pred
     row sorted increasing (succ rows are already deduped). *)
  let preds =
    Support.Csr.build ~num_nodes:n (fun emit ->
        for l = 0 to n - 1 do
          if reachable.(l) then
            Support.Csr.iter_row succs l (fun s -> emit ~src:s ~dst:l)
        done)
  in
  { entry; succs; preds; reachable; postorder; rpo; postorder_index }

let of_func (f : Mir.func) =
  let n = Mir.num_blocks f in
  (* A terminator has at most two successors, so dedup is one comparison.
     The terminator is matched in place: no successor list per block. *)
  let emit_succs emit l =
    match f.blocks.(l).term with
    | Return _ -> ()
    | Jump s -> emit ~src:l ~dst:s
    | Branch { if_true = a; if_false = b; _ } ->
      emit ~src:l ~dst:a;
      if b <> a then emit ~src:l ~dst:b
  in
  of_succs ~entry:f.entry
    (Support.Csr.build ~num_nodes:n (fun emit ->
         for l = 0 to n - 1 do
           emit_succs emit l
         done))

(* [edges] lists the split edges grouped by source in increasing label
   order, each source's in its row order (as [Edge_split] finds them), so
   one cursor walks them beside the rows. Edge [i] is split by block
   [n + i]: it takes the edge's place in its source's row and has the
   edge's target as its one successor. *)
let split_edges t (edges : (Mir.label * Mir.label) array) =
  if Array.length edges = 0 then t
  else begin
    let n = Support.Csr.num_nodes t.succs in
    let k = Array.length edges in
    let succs =
      Support.Csr.build ~num_nodes:(n + k) (fun emit ->
          let j = ref 0 in
          for l = 0 to n - 1 do
            Support.Csr.iter_row t.succs l (fun s ->
                if !j < k && fst edges.(!j) = l && snd edges.(!j) = s then begin
                  emit ~src:l ~dst:(n + !j);
                  incr j
                end
                else emit ~src:l ~dst:s)
          done;
          for i = 0 to k - 1 do
            emit ~src:(n + i) ~dst:(snd edges.(i))
          done)
    in
    of_succs ~entry:t.entry succs
  end

let equal a b =
  a.entry = b.entry
  && Support.Csr.equal a.succs b.succs
  && Support.Csr.equal a.preds b.preds
  && a.reachable = b.reachable

let num_succs t l = Support.Csr.degree t.succs l
let num_preds t l = Support.Csr.degree t.preds l
let succ t l i = Support.Csr.get t.succs l i
let pred t l i = Support.Csr.get t.preds l i
let iter_succs t l f = Support.Csr.iter_row t.succs l f
let iter_preds t l f = Support.Csr.iter_row t.preds l f
let fold_succs t l f init = Support.Csr.fold_row t.succs l f init
let fold_preds t l f init = Support.Csr.fold_row t.preds l f init
let succs_list t l = Support.Csr.row_list t.succs l
let preds_list t l = Support.Csr.row_list t.preds l
let reachable t l = t.reachable.(l)
let postorder t = t.postorder
let reverse_postorder t = t.rpo
let postorder_index t l = t.postorder_index.(l)
let num_blocks t = Array.length t.reachable
let entry t = t.entry
let num_edges t = Support.Csr.num_edges t.preds
