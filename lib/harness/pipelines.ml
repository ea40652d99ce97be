type pipeline = Standard | New | Briggs | Briggs_star | Briggs_star_fused

let name = function
  | Standard -> "Standard"
  | New -> "New"
  | Briggs -> "Briggs"
  | Briggs_star | Briggs_star_fused -> "Briggs*"

let all = [ Standard; New; Briggs; Briggs_star ]

type result = {
  func : Ir.func;
  static_copies : int;
  aux_bytes : int;
  ig_rounds : int;
  ig_bytes_per_round : int list;
  ig_peak_nodes : int;
  ig_peak_edges : int;
}

(* Working set every conversion shares: the IR itself plus the liveness
   vectors (pruned SSA construction and all destructors consume them). The
   paper compared whole-compiler memory, so the IR term matters — it is what
   keeps the ratios near 1 for small routines. *)
let base_bytes ssa =
  let cfg = Ir.Cfg.of_func ssa in
  Ir.estimated_bytes ssa
  + Analysis.Liveness.memory_bytes (Analysis.Liveness.compute ssa cfg)

let standard_instantiation ssa =
  Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa)

let convert ?scratch pipeline (f : Ir.func) =
  let ssa = Ssa.Construct.run_exn f in
  match pipeline with
  | Standard ->
    let out = standard_instantiation ssa in
    {
      func = out;
      static_copies = Ir.count_copies out;
      aux_bytes = base_bytes ssa;
      ig_rounds = 0;
      ig_bytes_per_round = [];
      ig_peak_nodes = 0;
      ig_peak_edges = 0;
    }
  | New ->
    let out, stats = Core.Coalesce.run ?scratch ssa in
    {
      func = out;
      static_copies = Ir.count_copies out;
      (* aux_memory_bytes already contains its own liveness vectors. *)
      aux_bytes = Ir.estimated_bytes ssa + stats.aux_memory_bytes;
      ig_rounds = 0;
      ig_bytes_per_round = [];
      ig_peak_nodes = 0;
      ig_peak_edges = 0;
    }
  | Briggs | Briggs_star | Briggs_star_fused ->
    let inst = standard_instantiation ssa in
    let out, (stats : Baseline.Ig_coalesce.stats) =
      match pipeline with
      | Briggs -> Baseline.Ig_coalesce.run ~variant:Briggs inst
      | _ -> Baseline.Ig_coalesce.run ~variant:Briggs_star inst
    in
    let peak = List.fold_left max 0 in
    {
      func = out;
      static_copies = Ir.count_copies out;
      aux_bytes =
        Ir.estimated_bytes inst + stats.aux_memory_bytes
        + stats.peak_graph_bytes;
      ig_rounds = stats.rounds;
      ig_bytes_per_round = stats.graph_bytes_per_round;
      ig_peak_nodes = peak stats.graph_nodes_per_round;
      ig_peak_edges = peak stats.graph_edges_per_round;
    }

let dynamic_copies result ~args =
  (Interp.run ~args result.func).stats.copies_executed

(* ------------------------------------------------------------------ *)
(* The pass-manager door                                               *)
(* ------------------------------------------------------------------ *)

let spec_of = function
  | Standard -> "construct:pruned,standard"
  | New -> "construct:pruned,coalesce"
  | Briggs -> "construct:pruned,briggs"
  | Briggs_star | Briggs_star_fused -> "construct:pruned,briggs-star"

let compile_spec ?check spec f =
  Driver.Pipeline.compile_passes ?check (Pass.Spec.parse_exn spec) f
