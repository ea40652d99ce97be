let is_critical cfg ~src ~dst =
  Cfg.num_succs cfg src > 1 && Cfg.num_preds cfg dst > 1

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
  List.rev !edges

let critical_edges (f : Mir.func) = critical_edges_in (Cfg.of_func f) f

let count_critical f = List.length (critical_edges f)

let run_cfg ?cfg ?obs (f : Mir.func) =
  let cfg = match cfg with Some c -> c | None -> Cfg.of_func f in
  match critical_edges_in cfg f with
  | [] -> (f, cfg)
  | edges ->
    Option.iter
      (fun o -> Obs.add o Obs.Critical_edges_split (List.length edges))
      obs;
    let n = Mir.num_blocks f in
    let edges = Array.of_list edges in
    (* Assign a fresh label per critical edge. *)
    let fresh = Hashtbl.create (Array.length edges) in
    Array.iteri (fun i e -> Hashtbl.add fresh e (n + i)) edges;
    let blocks =
      Array.init
        (n + Array.length edges)
        (fun l ->
          if l < n then begin
            let b = f.blocks.(l) in
            (* Retarget this block's outgoing critical edges... *)
            let term =
              Mir.map_successors
                (fun s ->
                  match Hashtbl.find_opt fresh (l, s) with
                  | Some mid -> mid
                  | None -> s)
                b.term
            in
            (* ...and re-key φ arguments arriving over split edges. *)
            let phis =
              List.map
                (fun (p : Mir.phi) ->
                  {
                    p with
                    args =
                      List.map
                        (fun (pl, op) ->
                          match Hashtbl.find_opt fresh (pl, l) with
                          | Some mid -> (mid, op)
                          | None -> (pl, op))
                        p.args;
                  })
                b.phis
            in
            { b with term; phis }
          end
          else begin
            let _, dst = edges.(l - n) in
            { Mir.label = l; phis = []; body = []; term = Jump dst }
          end)
    in
    let f' = Mir.with_blocks f blocks in
    (f', Cfg.of_func f')

let run (f : Mir.func) = fst (run_cfg f)
