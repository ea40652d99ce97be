(* The traced run's view of one compile: the benchmark calls each layer's
   public function itself, in pipeline order, under a span, so every
   per-layer number is measured from outside the program. One replay of
   a function walks all four conversion routes of Table 2:

     front parse and cache key of the function
     driver:    each route through Driver.Pipeline.compile_passes
     shared:    validate input, SSA construction, validate SSA
     New:       coalesce, validate output; then the coalescer's edge-split,
                CFG, dominance and liveness prerequisites on their own, as
                bench [scaling] times them
     Standard:  edge split, naive φ-instantiation, validate output
     Briggs:    Standard's instantiation, graph coalescing, validate output
     Briggs*:   the same with the copy-restricted graph

   The route sums (the layers each [compile_passes] runs, in the order it
   runs them) are reconciled against the [compile_passes] calls of the
   same replay: untraced compiles of the same function moments earlier,
   so both sides see the same machine speed, and both run with the
   function already in cache.
   The difference is [pass.unattributed_us]. Before each half the
   collector's pending work is paid outside the timed calls, so neither
   half is charged for the other's allocation. *)

module P = Harness.Pipelines

let routes = [ P.New; P.Standard; P.Briggs; P.Briggs_star ]

(* Parsed once: a spec parse inside a timed span would be charged to the
   layer. *)
let pipelines =
  List.map
    (fun p ->
      match Pass.Spec.parse (P.spec_of p) with
      | Ok l -> (p, l)
      | Error msg -> failwith ("bad pipeline spec: " ^ msg))
    routes

let pipeline_of p = List.assoc p pipelines

let route_name = function
  | P.New -> "new"
  | P.Standard -> "standard"
  | P.Briggs -> "briggs"
  | P.Briggs_star -> "briggs_star"
  | P.Briggs_star_fused -> "briggs_star_fused"

(* Per-layer sums over every replayed function, in seconds or counts. *)
type acc = {
  spans : Spans.t;
  obs : Obs.t;  (* the New route's counters *)
  sums : (string, float ref) Hashtbl.t;
  mutable items : int;
}

let create spans = { spans; obs = Obs.create (); sums = Hashtbl.create 64; items = 0 }

let add acc name x =
  match Hashtbl.find_opt acc.sums name with
  | Some r -> r := !r +. x
  | None -> Hashtbl.add acc.sums name (ref x)

let sum acc name = match Hashtbl.find_opt acc.sums name with Some r -> !r | None -> 0.

(* Replay one function; [route] names the pipelines the workload itself
   compiles through. Returns the seconds their [compile_passes] calls
   spend in the replayed layers, and the seconds those calls took. *)
let replay acc ~scratch ~front ~route ~req (it : Inputs.item) =
  let sp = acc.spans in
  let item = Spans.fresh_id sp in
  let t_item = Spans.now () in
  let time name f = Spans.time sp ~parent:item ~req name f in
  let validate name f = snd (time name (fun () -> Ir.Validate.run f)) in
  let obs = acc.obs in
  let _, t_front = time "front.parse" (fun () -> front it.wire) in
  let _, t_key =
    time "cache.key" (fun () ->
        Cache.key ~pipeline:(pipeline_of P.New) ~check:false it.func)
  in
  (* An untimed compile first: the first compile of a function after other
     work runs up to a third slower on small functions, and the layers
     below run on a warm function too. *)
  ignore (Driver.Pipeline.compile_passes ~scratch (pipeline_of P.New) it.func);
  ignore (Gc.major_slice 0);
  let driver = List.map
      (fun p ->
        let _, t =
          time ("driver." ^ route_name p) (fun () ->
              Driver.Pipeline.compile_passes ~scratch (pipeline_of p) it.func)
        in
        (p, t))
      routes
  in
  ignore (Gc.major_slice 0);
  let v_in = validate "validate.input" it.func in
  let ssa, t_construct = time "ssa.construct" (fun () -> Ssa.Construct.run_exn ~obs it.func) in
  let _, v_ssa = time "validate.ssa" (fun () -> Ssa.Ssa_validate.run ssa) in
  let (out_new, _), t_coalesce =
    time "core.coalesce" (fun () -> Core.Coalesce.run ~scratch ~obs ssa)
  in
  let v_new = validate "validate.new" out_new in
  let split, t_split = time "ir.edge_split" (fun () -> Ir.Edge_split.run ssa) in
  let cfg, t_cfg = time "ir.cfg" (fun () -> Ir.Cfg.of_func split) in
  let _, t_dom = time "analysis.dominance" (fun () -> Analysis.Dominance.compute split cfg) in
  let _, t_live = time "analysis.liveness" (fun () -> Analysis.Liveness.compute split cfg) in
  let inst, t_destruct =
    time "ssa.destruct_naive" (fun () -> Ssa.Destruct_naive.run_exn split)
  in
  let v_standard = validate "validate.standard" inst in
  let graph name variant =
    let (out, (s : Baseline.Ig_coalesce.stats)), t =
      time name (fun () -> Baseline.Ig_coalesce.run ~variant inst)
    in
    (t, validate ("validate." ^ name) out, s)
  in
  let t_briggs, v_briggs, s_briggs = graph "baseline.briggs" Baseline.Ig_coalesce.Briggs in
  let t_star, v_star, s_star = graph "baseline.briggs_star" Baseline.Ig_coalesce.Briggs_star in
  Spans.record sp ~id:item ~parent:0 ~req ("item " ^ it.name) t_item (Spans.now ());
  let shared = v_in +. t_construct +. v_ssa in
  let instantiate = shared +. t_split +. t_destruct in
  let layers = function
    | P.New -> shared +. t_coalesce +. v_new
    | P.Standard -> instantiate +. v_standard
    | P.Briggs -> instantiate +. t_briggs +. v_briggs
    | P.Briggs_star | P.Briggs_star_fused -> instantiate +. t_star +. v_star
  in
  let total f = List.fold_left (fun a p -> a +. f p) 0. route in
  let route_layers = total layers and route_driver = total (fun p -> List.assoc p driver) in
  acc.items <- acc.items + 1;
  add acc "route.layers" route_layers;
  add acc "route.driver" route_driver;
  List.iter
    (fun (k, v) -> add acc k v)
    [
      ("front.parse", t_front);
      ("cache.key", t_key);
      ("pass.validate", v_in +. v_ssa +. v_new);
      ("ssa.construct", t_construct);
      ("ir.edge_split", t_split);
      ("ir.cfg", t_cfg);
      ("analysis.dominance", t_dom);
      ("analysis.liveness", t_live);
      ("core.coalesce", t_coalesce);
      ("core.coalesce_self", t_coalesce -. (t_split +. t_cfg +. t_dom +. t_live));
      ("ssa.destruct_naive", t_destruct);
      ("baseline.briggs", t_briggs);
      ("baseline.briggs_star", t_star);
      ("baseline.ig_rounds", float s_star.rounds);
      ( "baseline.ig_peak_edges",
        float (List.fold_left max 0 s_briggs.graph_edges_per_round) );
      ("baseline.briggs_graph_bytes", float s_briggs.peak_graph_bytes);
      ("baseline.briggs_star_graph_bytes", float s_star.peak_graph_bytes);
    ];
  List.iter (fun (p, t) -> add acc ("driver." ^ route_name p) t) driver;
  (route_layers, route_driver)

(* The per-layer metrics, as (name, value, unit): times in microseconds
   per replayed function, counts per function. *)
let metrics acc =
  let items = acc.items in
  let n = float (max 1 items) in
  let m name value unit = Report.metric ~n:items name value unit in
  let us name = m (name ^ "_us") (sum acc name /. n *. 1e6) "us" in
  let per_fn ?(unit = "count") name = m name (sum acc name /. n) unit in
  let counter c = float (Obs.get acc.obs c) /. n in
  let obs_sum cs = List.fold_left (fun a c -> a +. counter c) 0. cs in
  let inserted = float (Obs.get acc.obs Obs.Copies_inserted) in
  let eliminated = float (Obs.get acc.obs Obs.Copies_eliminated) in
  List.map us
    [
      "front.parse"; "cache.key"; "pass.validate"; "ssa.construct"; "ir.edge_split";
      "ir.cfg"; "analysis.dominance"; "analysis.liveness"; "core.coalesce";
      "core.coalesce_self"; "ssa.destruct_naive"; "baseline.briggs";
      "baseline.briggs_star"; "driver.standard"; "driver.new"; "driver.briggs";
      "driver.briggs_star";
    ]
  @ [
      m "pass.unattributed_us" ((sum acc "route.driver" -. sum acc "route.layers") /. n *. 1e6) "us";
      m "analysis.liveness_pops" (counter Obs.Liveness_worklist_pops) "count";
      m "core.phi_args_unioned" (counter Obs.Phi_args_unioned) "count";
      m "core.filter_refusals"
        (obs_sum
           Obs.
             [
               Filter_arg_live_into_block; Filter_target_live_out; Filter_phi_arg_live_in;
               Filter_sibling_phi; Filter_same_block_args;
             ])
        "count";
      m "core.forest_checks" (counter Obs.Forest_interference_checks) "count";
      m "core.local_checks" (counter Obs.Local_interference_checks) "count";
      m "core.detaches" (obs_sum Obs.[ Rename_detaches; Forest_detaches; Local_detaches ]) "count";
      m "core.coalesced_frac" (eliminated /. Float.max 1. (inserted +. eliminated)) "frac";
      m "ssa.pcopy_temps" (counter Obs.Parallel_copy_temps) "count";
      per_fn "baseline.ig_rounds";
      per_fn "baseline.ig_peak_edges";
      per_fn ~unit:"bytes" "baseline.briggs_graph_bytes";
      per_fn ~unit:"bytes" "baseline.briggs_star_graph_bytes";
    ]
