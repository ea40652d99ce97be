(* suite-new and suite-graph: a closed loop on one domain, no cache,
   compiling the suite one function at a time through
   Driver.Pipeline.compile_passes — New alone, or Standard, Briggs and
   Briggs* in turn — in a seeded order, cycle after cycle. *)

module P = Harness.Pipelines

type kind = New_only | Graph_trio

let routes = function
  | New_only -> [ P.New ]
  | Graph_trio -> [ P.Standard; P.Briggs; P.Briggs_star ]

type setup = {
  items : Inputs.item array;
  order : int array;
  refs : Interp.outcome option array;  (* interpreter results of the inputs *)
}

let compile ~scratch pipes (it : Inputs.item) =
  List.map (fun p -> (Driver.Pipeline.compile_passes ~scratch p it.func).output) pipes

let setup ~seed ~scratch pipes () =
  let items = Inputs.suite ~seed in
  let refs =
    Array.map
      (fun (it : Inputs.item) -> Option.map (fun args -> Interp.run ~args it.func) it.args)
      items
  in
  (* One untimed pass, so lazy set-up and the scratch arena are warm. *)
  Array.iter (fun it -> ignore (compile ~scratch pipes it)) items;
  { items; order = Inputs.shuffle ~seed (Array.length items); refs }

let check_outputs c (s : setup) outputs =
  Array.iteri
    (fun i outs ->
      let it = s.items.(i) in
      List.iter
        (fun out ->
          Report.check_run c ("output of " ^ it.name) (fun () ->
              match s.refs.(i), it.args with
              | Some r, Some args -> Interp.equivalent r (Interp.run ~args out)
              | _ -> Check.equiv ~reference:it.func out = Ok ()))
        outs)
    outputs

let run kind ~seed ~seconds ~trace ~setups ~spans =
  let route = routes kind in
  let pipes = List.map Layers.pipeline_of route in
  let scratch = Support.Scratch.domain () in
  let s, setup, wall_setup =
    Report.repeat_setup ~times:setups ~release:ignore (setup ~seed ~scratch pipes)
  in
  (* Single-domain allocation is deterministic, so the heap's high-water
     mark after set-up (which compiles every item once) repeats exactly
     for a seed; read at the end of the timed loop it would depend on
     where the loop happened to stop. *)
  let peak = Report.peak_heap_mb () in
  let n = Array.length s.items in
  let measured = if trace then seconds /. 2. else seconds in
  let outputs = Array.make n [] in
  let count, elapsed, cycles =
    Report.cycles ~seconds:measured ~order:s.order (fun i ->
        let t0 = Report.now () in
        let outs = compile ~scratch pipes s.items.(i) in
        let dt = Report.now () -. t0 in
        outputs.(i) <- outs;
        dt)
  in
  let blocks = Report.cycle_blocks cycles in
  let timing, wall_timing = Report.scaled_timing_metrics ~n:(n * List.length cycles) blocks in
  let at_nominal_fps cycles =
    Report.median_throughput (List.map Report.at_nominal (Report.cycle_blocks cycles))
  in
  let untraced_fps = at_nominal_fps cycles in
  let c = Report.checks () in
  check_outputs c s outputs;
  let paper = List.filter (fun (it : Inputs.item) -> it.paper) (Array.to_list s.items) in
  let static, dynamic, spills, words = Report.quality c ~scratch pipes paper in
  let e2e =
    (setup :: timing)
    @ [
        Report.metric ~n:(List.length paper) "alloc_words_per_item" words "words";
        Report.metric "peak_heap_mb" peak "MB";
        Report.metric "static_copies" static "count";
        Report.metric "dynamic_copies" dynamic "count";
        Report.metric "spill_ops" spills "count";
      ]
  in
  let layers, extras, notes =
    if not trace then ([], [], [])
    else begin
      let acc = Layers.create spans in
      let ratio = Array.make n [] in
      let _, _, traced_cycles =
        Report.cycles ~seconds:measured ~order:s.order (fun i ->
            let layers, compile =
              Layers.replay acc ~scratch ~front:Frontend.Lower.compile_one ~route ~req:i
                s.items.(i)
            in
            ratio.(i) <- (layers /. compile) :: ratio.(i);
            layers)
      in
      (* Reconciliation: per function, the median over the replays of its
         route's layer sum over its untraced compile time in the same
         replay, so a change in machine speed between replays cancels. *)
      let ratios = Array.map Stats.median ratio in
      let within =
        Array.fold_left (fun k r -> if Float.abs (r -. 1.) <= 0.15 then k + 1 else k) 0 ratios
      in
      let worst =
        Array.fold_left
          (fun w r -> if Float.abs (r -. 1.) > Float.abs (w -. 1.) then r else w)
          1. ratios
      in
      let aggregate =
        Layers.sum acc "route.layers" /. Layers.sum acc "route.driver"
      in
      (* Items over the time of the traced cycles, summarised like the
         untraced rate. A traced item replays all four routes layer by
         layer, so this is the rate the traced run delivers, not the cost
         of the spans alone (printed on its own below). *)
      let traced_fps = at_nominal_fps traced_cycles in
      ( Layers.metrics acc @ Report.cache_metrics Cache.zero_stats,
        [
          Report.metric ~n "trace.reconciled_frac" (float within /. float n) "frac";
          Report.metric ~n "trace.reconcile_aggregate" aggregate "ratio";
          Report.metric ~n "trace.reconcile_worst" worst "ratio";
          Report.metric "trace.overhead_items_per_s" (traced_fps -. untraced_fps) "1/s";
        ],
        [
          Printf.sprintf
            "reconcile: %d/%d functions' layer sums within 15%% of their untraced \
             compile_passes median; all functions %.3f, worst %.3f"
            within n aggregate worst;
          Printf.sprintf
            "tracing overhead: traced %.1f - untraced %.1f = %+.1f items/s; one span costs \
             %.0f ns"
            traced_fps untraced_fps (traced_fps -. untraced_fps) (Spans.cost () *. 1e9);
        ] )
    end
  in
  {
    Report.workload = (match kind with New_only -> "suite-new" | Graph_trio -> "suite-graph");
    attempted = count + c.attempted;
    failed = c.failed;
    invalid = None;
    seconds = elapsed;
    e2e;
    layers;
    extras = (wall_setup :: wall_timing) @ extras;
    notes =
      (Report.block_note "compile" blocks :: notes)
      @ Option.to_list (Option.map (( ^ ) "first failure: ") c.first_failure);
  }
