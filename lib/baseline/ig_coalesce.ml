open Support
module Cfg = Ir.Cfg
module Liveness = Analysis.Liveness
module Loops = Analysis.Loops

type variant = Briggs | Briggs_star

type stats = {
  rounds : int;
  coalesced : int;
  copies_remaining : int;
  graph_bytes_per_round : int list;
  peak_graph_bytes : int;
  graph_nodes_per_round : int list;
  graph_edges_per_round : int list;
  aux_memory_bytes : int;
}

let rename (f : Ir.func) find =
  let rename_use r = Ir.Reg (find r) in
  Ir.map_blocks
    (fun b ->
      {
        b with
        body =
          List.map
            (fun i -> Ir.map_instr_def find (Ir.map_instr_uses rename_use i))
            b.body;
        term = Ir.map_term_uses rename_use b.term;
      })
    { f with params = List.map find f.params }

let rewrite f ~find =
  let rewritten = rename f find in
  Ir.map_blocks
    (fun b ->
      {
        b with
        body =
          List.filter
            (fun i ->
              match i with
              | Ir.Copy { dst; src = Ir.Reg s } -> dst <> s
              | _ -> true)
            b.body;
      })
    rewritten

(* Copies of the current code, each with the loop depth of its block;
   processed innermost-first (the heuristic the paper discusses: removing
   copies out of inner loops first is most profitable). *)
let collect_copies (f : Ir.func) cfg depth_of =
  let copies = ref [] in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun i ->
            match i with
            | Ir.Copy { dst; src = Ir.Reg s } when dst <> s ->
              copies := (depth_of b.label, dst, s) :: !copies
            | _ -> ())
          b.body)
    f.blocks;
  List.stable_sort (fun (d1, _, _) (d2, _, _) -> compare d2 d1) (List.rev !copies)

let run ?facts ~variant (f : Ir.func) =
  let scratch = Scratch.domain () in
  Array.iter
    (fun (b : Ir.block) ->
      if b.phis <> [] then invalid_arg "Ig_coalesce: function has phi-nodes")
    f.blocks;
  (* A round renames registers and drops nothing, so every round's code
     has [f]'s CFG. *)
  let facts = Analysis.Facts.or_build facts f in
  let cfg = facts.cfg in
  let loops = Loops.compute cfg (Analysis.Facts.dominance f facts) in
  let uf = Union_find.create f.nregs in
  let rounds = ref 0 in
  let coalesced = ref 0 in
  let graph_bytes = ref [] in
  let graph_nodes = ref [] in
  let graph_edges = ref [] in
  let liveness_bytes = ref 0 in
  let continue_ = ref true in
  (* The previous round's graph, whose bit matrix the next round reuses. *)
  let last = ref None in
  while !continue_ do
    incr rounds;
    let cur = rename f (Union_find.find uf) in
    let live = Liveness.compute_into ~scratch cur cfg in
    liveness_bytes := max !liveness_bytes (Liveness.memory_bytes live);
    let copies = collect_copies cur cfg (Loops.depth loops) in
    let graph =
      match variant with
      | Briggs -> Igraph.build_full ?reuse:!last cur cfg live
      | Briggs_star ->
        let members =
          List.concat_map (fun (_, d, s) -> [ d; s ]) copies
          |> List.sort_uniq compare
        in
        Igraph.build_restricted ?reuse:!last cur cfg live ~members
    in
    Liveness.release scratch live;
    last := Some graph;
    graph_bytes := Igraph.memory_bytes graph :: !graph_bytes;
    graph_nodes := Igraph.num_nodes graph :: !graph_nodes;
    graph_edges := Igraph.num_edges graph :: !graph_edges;
    let changed = ref false in
    List.iter
      (fun (_, d, s) ->
        let d' = Union_find.find uf d and s' = Union_find.find uf s in
        if d' <> s' && not (Igraph.interferes graph d' s') then begin
          let rep = Union_find.union uf d' s' in
          let other = if rep = d' then s' else d' in
          (* Keep the graph conservative for the rest of this pass. *)
          Igraph.merge graph ~into:rep other;
          incr coalesced;
          changed := true
        end)
      copies;
    if not !changed then continue_ := false
  done;
  (* Final rewrite; coalesced copies are now the identity and disappear. *)
  let final = rewrite f ~find:(Union_find.find uf) in
  ( final,
    {
      rounds = !rounds;
      coalesced = !coalesced;
      copies_remaining = Ir.count_copies final;
      graph_bytes_per_round = List.rev !graph_bytes;
      peak_graph_bytes = List.fold_left max 0 !graph_bytes;
      graph_nodes_per_round = List.rev !graph_nodes;
      graph_edges_per_round = List.rev !graph_edges;
      aux_memory_bytes = !liveness_bytes + (16 * f.nregs);
    } )

let run_exn ?facts ~variant f = fst (run ?facts ~variant f)
