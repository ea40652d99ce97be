let is_critical cfg ~src ~dst =
  Cfg.num_succs cfg src > 1 && Cfg.num_preds cfg dst > 1

(* Grouped by source in increasing label order, each source's in row
   order: the order [Cfg.split_edges] walks them in. *)
let critical_edges_in cfg (f : Mir.func) =
  let edges = ref [] in
  Array.iter
    (fun (b : Mir.block) ->
      if Cfg.reachable cfg b.label then
        (* Distinct successor pairs only: a conditional branch with both arms
           on the same target is one edge for φ purposes. *)
        Cfg.iter_succs cfg b.label (fun s ->
            if is_critical cfg ~src:b.label ~dst:s then
              edges := (b.label, s) :: !edges))
    f.blocks;
  Array.of_list (List.rev !edges)

let count_critical f = Array.length (critical_edges_in (Cfg.of_func f) f)

let split ?obs cfg (f : Mir.func) =
  let edges = critical_edges_in cfg f in
  let k = Array.length edges in
  if k = 0 then (f, cfg, edges)
  else begin
    Option.iter (fun o -> Obs.add o Obs.Critical_edges_split k) obs;
    let n = Mir.num_blocks f in
    let cfg' = Cfg.split_edges cfg edges in
    let blocks =
      Array.append f.blocks
        (Array.init k (fun i ->
             { Mir.label = n + i; phis = []; body = []; term = Jump (snd edges.(i)) }))
    in
    (* [stamp.(x) = l] marks label [x] as the far end of a split edge of
       block [l], split by block [mid.(x)]. Only the blocks at either end
       of a split edge are rebuilt. *)
    let stamp = Array.make n (-1) and mid = Array.make n 0 in
    (* Sources: retarget the terminator. A source's edges are adjacent. *)
    let i = ref 0 in
    while !i < k do
      let a = fst edges.(!i) in
      while !i < k && fst edges.(!i) = a do
        let s = snd edges.(!i) in
        stamp.(s) <- a;
        mid.(s) <- n + !i;
        incr i
      done;
      let b = blocks.(a) in
      blocks.(a) <-
        {
          b with
          term =
            Mir.map_successors (fun s -> if stamp.(s) = a then mid.(s) else s) b.term;
        }
    done;
    Array.fill stamp 0 n (-1);
    (* Targets: re-key the φ arguments that arrive over split edges. The
       splitting blocks close each predecessor row of the split CFG, as
       they have the largest labels. *)
    for l = 0 to n - 1 do
      let np = Cfg.num_preds cfg' l in
      if np > 0 && Cfg.pred cfg' l (np - 1) >= n then begin
        Cfg.iter_preds cfg' l (fun m ->
            if m >= n then begin
              let src = fst edges.(m - n) in
              stamp.(src) <- l;
              mid.(src) <- m
            end);
        let b = blocks.(l) in
        let rekey ((pl, op) as arg) =
          if pl >= 0 && pl < n && stamp.(pl) = l then (mid.(pl), op) else arg
        in
        blocks.(l) <-
          {
            b with
            phis =
              List.map
                (fun (p : Mir.phi) -> { p with args = List.map rekey p.args })
                b.phis;
          }
      end
    done;
    (Mir.with_blocks f blocks, cfg', edges)
  end

let run (f : Mir.func) =
  let f', _, _ = split (Cfg.of_func f) f in
  f'
