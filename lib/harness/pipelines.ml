type pipeline = Standard | New | Briggs | Briggs_star | Briggs_star_fused

let name = function
  | Standard -> "Standard"
  | New -> "New"
  | Briggs -> "Briggs"
  | Briggs_star | Briggs_star_fused -> "Briggs*"

let all = [ Standard; New; Briggs; Briggs_star ]

let spec_of = function
  | Standard -> "construct:pruned,standard"
  | New -> "construct:pruned,coalesce"
  | Briggs -> "construct:pruned,briggs"
  | Briggs_star | Briggs_star_fused -> "construct:pruned,briggs-star"

let compile_spec ?check spec f =
  Driver.Pipeline.compile_passes ?check (Pass.Spec.parse_exn spec) f

(* ------------------------------------------------------------------ *)
(* The evaluation                                                      *)
(* ------------------------------------------------------------------ *)

type route = {
  pipeline : pipeline;
  copies_inserted : int;
  copies_eliminated : int;
  static_copies : int;
  model_bytes : int;
  graph : Baseline.Ig_coalesce.stats option;
  copies_executed : int option;
  allocation : Regalloc.stats option;
}

type routine = {
  entry : Workloads.Suite.entry;
  ssa : Ir.func;
  instantiation : Ir.func;
  routes : route list;
  sreedhar_copies : int option;
}

type evaluation = { routines : routine list; memory_ratio : float }

let route_of routine p = List.find (fun r -> r.pipeline = p) routine.routes

let compile ?obs spec (e : Workloads.Suite.entry) =
  Driver.Pipeline.compile_passes ~check:true ?obs (Pass.Spec.parse_exn spec)
    e.func

let evaluate_routine ~registers ~interpret (e : Workloads.Suite.entry) =
  let fail fmt = Printf.ksprintf (fun m -> failwith (e.name ^ ": " ^ m)) fmt in
  let reference = if interpret then Some (Interp.run ~args:e.args e.func) else None in
  (* Table 4 counts the copies the output executes on the routine's own
     arguments; they must also give the source's result. *)
  let run_copies route (out : Ir.func) =
    Option.map
      (fun reference ->
        let o = Interp.run ~args:e.args out in
        if not (Interp.equivalent reference o) then
          fail "%s changed the program's result" route;
        o.stats.copies_executed)
      reference
  in
  (* Downstream allocation; the spill slab is the allocator's own memory. *)
  let allocate p out =
    if not interpret then None
    else begin
      let a =
        Regalloc.run ~options:{ Regalloc.default_options with registers } out
      in
      (try
         Check.equiv_exn ~ignore_arrays:[ a.spill_array ] ~reference:e.func
           a.func
       with Check.Failed m -> fail "%s + regalloc:%d: %s" (name p) registers m);
      Some a.stats
    end
  in
  let reports =
    List.map
      (fun p ->
        let obs = Obs.create () in
        (p, compile ~obs (spec_of p) e, obs))
      all
  in
  let _, standard, _ = List.find (fun (p, _, _) -> p = Standard) reports in
  let ssa = (List.hd standard.stages).func in
  (* Table 3's working-memory model. Every route holds the IR it converts;
     Standard adds the liveness bit vectors, New its own auxiliary
     structures, and the graph coalescers theirs plus the peak graph, all
     over the Standard instantiation they rewrite. *)
  let model p =
    match p with
    | Standard ->
      ( Ir.estimated_bytes ssa
        + Analysis.Liveness.model_bytes ~blocks:(Ir.num_blocks ssa)
            ~nregs:ssa.nregs,
        None )
    | New ->
      let _, s = Core.Coalesce.run ssa in
      (Ir.estimated_bytes ssa + s.aux_memory_bytes, None)
    | Briggs | Briggs_star | Briggs_star_fused ->
      let variant =
        if p = Briggs then Baseline.Ig_coalesce.Briggs
        else Baseline.Ig_coalesce.Briggs_star
      in
      let _, s = Baseline.Ig_coalesce.run ~variant standard.output in
      ( Ir.estimated_bytes standard.output + s.aux_memory_bytes
        + s.peak_graph_bytes,
        Some s )
  in
  let routes =
    List.map
      (fun (p, (r : Driver.Pipeline.report), obs) ->
        if Array.exists (fun (b : Ir.block) -> b.phis <> []) r.output.blocks
        then fail "%s output has phi-nodes" (name p);
        let model_bytes, graph = model p in
        {
          pipeline = p;
          copies_inserted = Obs.get obs Obs.Copies_inserted;
          copies_eliminated = Obs.get obs Obs.Copies_eliminated;
          static_copies = Ir.count_copies r.output;
          model_bytes;
          graph;
          copies_executed = run_copies (name p) r.output;
          allocation = allocate p r.output;
        })
      reports
  in
  (* Section 4.1: the two graph coalescers make the same decisions; the
     copy-restricted graph is never the bigger one. *)
  let b = List.find (fun r -> r.pipeline = Briggs) routes
  and s = List.find (fun r -> r.pipeline = Briggs_star) routes in
  let peak f (r : route) =
    Option.fold ~none:0 ~some:(fun g -> List.fold_left max 0 (f g)) r.graph
  in
  let rounds (r : route) =
    Option.fold ~none:0 ~some:(fun (g : Baseline.Ig_coalesce.stats) -> g.rounds)
      r.graph
  in
  if
    b.copies_eliminated <> s.copies_eliminated
    || b.static_copies <> s.static_copies
    || rounds b <> rounds s
  then
    fail
      "coalescing decisions diverge (Briggs %d eliminated, %d left, %d \
       rounds; Briggs* %d, %d, %d)"
      b.copies_eliminated b.static_copies (rounds b) s.copies_eliminated
      s.static_copies (rounds s);
  let nodes (g : Baseline.Ig_coalesce.stats) = g.graph_nodes_per_round
  and edges (g : Baseline.Ig_coalesce.stats) = g.graph_edges_per_round in
  if peak nodes s > peak nodes b || peak edges s > peak edges b then
    fail "copy-restricted graph bigger than the full graph";
  let sreedhar_copies =
    if not interpret then None
    else
      let r = compile "construct:pruned,sreedhar-i" e in
      ignore (run_copies "Sreedhar-I" r.output);
      Some (Ir.count_copies r.output)
  in
  { entry = e; ssa; instantiation = standard.output; routes; sreedhar_copies }

let peak_graph_bytes r =
  Option.fold ~none:0
    ~some:(fun (g : Baseline.Ig_coalesce.stats) -> g.peak_graph_bytes)
    r.graph

let evaluate ~registers ~kernels ~large =
  let routines =
    List.map (evaluate_routine ~registers ~interpret:true) kernels
    @ List.map (evaluate_routine ~registers ~interpret:false) large
  in
  (* Tables 1 and 3: summed over the routines, Briggs* needs at least an
     order of magnitude less peak graph memory than Briggs. Per routine the
     mapping array can dominate a tiny kernel, so the claim is about the
     total, where the large routines' quadratic matrices live. *)
  let sum p =
    List.fold_left (fun acc t -> acc + peak_graph_bytes (route_of t p)) 0 routines
  in
  let memory_ratio =
    float_of_int (sum Briggs) /. float_of_int (max 1 (sum Briggs_star))
  in
  if memory_ratio < 10.0 then
    failwith
      (Printf.sprintf
         "Briggs/Briggs* aggregate peak graph memory ratio %.1f < 10"
         memory_ratio);
  { routines; memory_ratio }
