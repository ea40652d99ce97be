(* Benchmark harness: regenerates every table of the paper's evaluation
   (Section 4) plus the extension studies, on the kernel suite described
   in DESIGN.md. Time columns are Bechamel OLS estimates (one Test.make
   per measured thunk, wrapped by Harness.Measure); every other column
   comes from Harness.Pipelines.evaluate, which compiles each route's
   spec once through the pass manager's door.

   Usage: main.exe [tables|scaling|ablation|passes|metrics|all]
          main.exe --fast ...     (shorter Bechamel quotas, noisier numbers)
          main.exe --json ...     (also write bench_main.json in the current
                                   directory: per-target wall times + the
                                   "tables" aggregate rows, machine-readable)

   End-to-end speed (batch throughput, the compile cache, the server, the
   streaming corpus) is measured by the repository benchmark, bench/e2e.

   Expected shapes (what the paper's tables show and ours must reproduce):
   - Table 1: Briggs* needs far less graph memory than Briggs and less
     time, with identical resulting code.
   - Table 2: Standard < New < Briggs* in conversion time, timed as the
     paper did: from SSA form to CFG, construction in its own column.
   - Table 3: New uses modestly more memory than Standard, far less than
     the graphs.
   - Tables 4/5: New ≈ Briggs* in dynamic/static copies, both way below
     Standard; Sreedhar's Method I is the copy ceiling. *)

module P = Harness.Pipelines
module T = Harness.Tables
module M = Harness.Measure

let quota = ref 0.25

let kernels () = Workloads.Suite.kernels ()

(* ------------------------------------------------------------------ *)
(* Extension: O(n·α(n)) scaling of the coalescer itself.               *)
(* ------------------------------------------------------------------ *)

let scaling () =
  (* The paper's O(n·α(n)) bound covers the coalescing machinery itself;
     liveness (and dominance) are prerequisites it assumes ("parts of the
     analysis necessary for pruned SSA, such as liveness analysis, are
     assumed"). We therefore report total conversion time, the prerequisite
     time (edge split + CFG + dominance + liveness), and their difference —
     the algorithm proper — per φ argument. *)
  let rows = ref [] in
  List.iter
    (fun size ->
      let f =
        Workloads.Generator.generate_ir
          { Workloads.Generator.default with seed = 7; size; num_vars = 12 }
      in
      let ssa = Ssa.Construct.run_exn f in
      let split = Ir.Edge_split.run ssa in
      let nargs = Ir.count_phi_args ssa in
      let t_total =
        M.seconds ~quota_s:!quota
          ~name:(Printf.sprintf "coalesce/size%d" size)
          (fun () -> Core.Coalesce.run ssa)
      in
      let t_prereq =
        M.seconds ~quota_s:!quota
          ~name:(Printf.sprintf "prereq/size%d" size)
          (fun () ->
            let split = Ir.Edge_split.run ssa in
            let cfg = Ir.Cfg.of_func split in
            let dom = Analysis.Dominance.compute split cfg in
            let live = Analysis.Liveness.compute split cfg in
            (dom, live))
      in
      ignore split;
      let t_algo = Float.max 0.0 (t_total -. t_prereq) in
      rows :=
        [
          string_of_int size;
          string_of_int (Ir.num_blocks ssa);
          string_of_int nargs;
          T.fmt_seconds t_total;
          T.fmt_seconds t_prereq;
          T.fmt_seconds t_algo;
          (if nargs = 0 then "-"
           else Printf.sprintf "%.0fns" (t_algo *. 1e9 /. float_of_int nargs));
        ]
        :: !rows)
    [ 25; 50; 100; 200; 400; 800 ];
  T.print
    ~title:
      "Scaling: coalescer cost per phi argument, net of the liveness/\
       dominance prerequisites the paper assumes (flat last column = the \
       O(n a(n)) claim)"
    ~header:
      [ "gen size"; "blocks"; "phi args"; "total"; "prereq"; "algorithm";
        "algo/arg" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Extension: ablation of the design choices DESIGN.md calls out.      *)
(* ------------------------------------------------------------------ *)

let ablation () =
  let variants =
    [
      ("default", Core.Coalesce.default_options);
      ("no-filters", { Core.Coalesce.default_options with use_filters = false });
      ( "no-victim-rule",
        { Core.Coalesce.default_options with victim_heuristic = false } );
    ]
  in
  let sums = List.map (fun (n, _) -> (n, ref 0, ref 0.0)) variants in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let reference = Interp.run ~args:e.args e.func in
      List.iter2
        (fun (vname, options) (_, copies_sum, time_sum) ->
          let out, _ = Core.Coalesce.run ~options ssa in
          if not (Interp.equivalent reference (Interp.run ~args:e.args out))
          then failwith ("ablation " ^ vname ^ " broke " ^ e.name);
          copies_sum := !copies_sum + Ir.count_copies out;
          time_sum :=
            !time_sum
            +. M.seconds ~quota_s:(!quota /. 2.)
                 ~name:(e.name ^ "/" ^ vname)
                 (fun () -> Core.Coalesce.run ~options ssa))
        variants sums)
    (kernels ());
  (* SSA pruning flavours as input to New: the paper predicts extra copies
     for the less precise forms. *)
  let pruning_copies pruning =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        let ssa = Ssa.Construct.run_exn ~pruning e.func in
        acc + Ir.count_copies (Core.Coalesce.run_exn ssa))
      0 (kernels ())
  in
  (* DCE recovers most of pruned SSA's advantage for the imprecise forms —
     the paper's Section 2 suggestion quantified. *)
  let pruning_copies_dce pruning =
    List.fold_left
      (fun acc (e : Workloads.Suite.entry) ->
        let ssa = Ssa.Construct.run_exn ~pruning e.func in
        acc + Ir.count_copies (Core.Coalesce.run_exn (Ssa.Dce.run_exn ssa)))
      0 (kernels ())
  in
  T.print
    ~title:"Ablation: coalescer variants (totals over the whole suite)"
    ~header:[ "variant"; "static copies"; "total time" ]
    (List.map
       (fun (n, c, t) -> [ n; string_of_int !c; T.fmt_seconds !t ])
       sums
    @ [
        [ "pruned SSA input"; string_of_int (pruning_copies Ssa.Construct.Pruned); "" ];
        [
          "semi-pruned input";
          string_of_int (pruning_copies Ssa.Construct.Semi_pruned);
          "";
        ];
        [ "minimal input"; string_of_int (pruning_copies Ssa.Construct.Minimal); "" ];
        [
          "semi-pruned + DCE";
          string_of_int (pruning_copies_dce Ssa.Construct.Semi_pruned);
          "";
        ];
        [
          "minimal + DCE";
          string_of_int (pruning_copies_dce Ssa.Construct.Minimal);
          "";
        ];
      ])

(* ------------------------------------------------------------------ *)
(* Extension: pass-manager pipelines — what the optimizing SSA passes
   feed the coalescer. Copy-prop/simplify/dce ahead of the conversion
   should never increase the copies the coalescer inserts, and the
   table shows what each ordering costs in compile time.                *)
(* ------------------------------------------------------------------ *)

let pass_pipelines () =
  let specs =
    [
      "construct:pruned,coalesce";
      "construct:pruned,copy-prop,coalesce";
      "construct:pruned,copy-prop,simplify,dce,coalesce";
      "construct:pruned+nofold,copy-prop,coalesce";
      "construct:minimal,copy-prop,dce,coalesce";
    ]
  in
  let rows =
    List.map
      (fun spec ->
        let copies = ref 0 in
        let time = ref 0.0 in
        List.iter
          (fun (e : Workloads.Suite.entry) ->
            let r = P.compile_spec spec e.func in
            let reference = Interp.run ~args:e.args e.func in
            if not (Interp.equivalent reference (Interp.run ~args:e.args r.output))
            then failwith ("pipeline " ^ spec ^ " broke " ^ e.name);
            copies := !copies + Ir.count_copies r.output;
            time :=
              !time
              +. M.seconds ~quota_s:(!quota /. 2.)
                   ~name:(e.name ^ "/" ^ spec)
                   (fun () -> P.compile_spec spec e.func))
          (kernels ());
        [ spec; string_of_int !copies; T.fmt_seconds !time ])
      specs
  in
  T.print
    ~title:
      "Pass-manager pipelines (totals over the whole suite; specs as \
       accepted by repro-cli opt --passes)"
    ~header:[ "pipeline"; "static copies"; "total time" ]
    rows

(* ------------------------------------------------------------------ *)
(* tables: the paper's evaluation. Harness.Pipelines.evaluate supplies
   every deterministic column and asserts the paper's two identities
   (Briggs and Briggs* make the same decisions on every routine; summed
   over the suite Briggs* needs at least 10x less peak graph memory).
   This adds the clocks, timing the registry's own passes on the door's
   snapshots: construction once per routine, each route's conversion
   pass alone on the "ssa" snapshot (Table 2), and each graph coalescer
   on the Standard instantiation (Table 1). No model runs in a timed
   thunk. Tables 1-3 cover the kernels and the large routines, which
   stand in for the paper's largest inputs (fpppp, twldrv were thousands
   of lines): the quadratic graph costs only separate from the linear
   coalescer at size. Tables 4-5 and the k=8 allocation rows cover the
   interpretable kernels.                                              *)
(* ------------------------------------------------------------------ *)

type tables_row = {
  tr_name : string;
  tr_spec : string;
  tr_convert_s : float;  (* summed OLS estimates, kernels+large *)
  tr_copies_inserted : int;
  tr_copies_eliminated : int;
  tr_static_copies : int;
  tr_ig_rounds : int;
  tr_ig_peak_nodes : int;  (* largest single graph over the suite *)
  tr_ig_peak_edges : int;
  tr_ig_peak_bytes : int;  (* summed per-workload peaks *)
  tr_copies_executed : int;  (* kernels only *)
  tr_spilled_ranges : int;  (* kernels, k=8 *)
  tr_spill_loads : int;
  tr_spill_stores : int;
  tr_colors_max : int;
}

let tables_registers = 8
let tables_results : tables_row list ref = ref []
let tables_memory_ratio = ref 0.0
let tables_construct_s = ref 0.0

type timing = {
  construct_s : float;
  convert_s : (P.pipeline * float) list;  (* from the ssa snapshot *)
  briggs_s : float;  (* Ig_coalesce.run on the instantiation *)
  briggs_star_s : float;
}

let time_routine (t : P.routine) =
  let time what f =
    M.seconds ~quota_s:!quota ~name:(t.entry.name ^ "/" ^ what) f
  in
  let ctx =
    { Pass.input = t.entry.func; scratch = None; obs = None; check = false }
  in
  (* The registry's own pass of [shape] in the route's spec, on [f]. *)
  let run p shape f =
    let pass =
      List.find
        (fun (q : Pass.t) -> q.shape = shape)
        (Pass.Spec.parse_exn (P.spec_of p))
    in
    fun () -> pass.run ctx f
  in
  let graph what variant =
    time what (fun () -> Baseline.Ig_coalesce.run ~variant t.instantiation)
  in
  {
    construct_s = time "construct" (run P.New Pass.Construct t.entry.func);
    convert_s =
      List.map (fun p -> (p, time (P.name p) (run p Pass.Conversion t.ssa))) P.all;
    briggs_s = graph "ig/briggs" Baseline.Ig_coalesce.Briggs;
    briggs_star_s = graph "ig/briggs*" Baseline.Ig_coalesce.Briggs_star;
  }

let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b
let opt f = function Some x -> f x | None -> 0
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sum_columns = function
  | [] -> []
  | row :: rows -> List.fold_left (List.map2 ( + )) row rows

(* A per-routine table: one row per routine, then the AVERAGE of each
   ratio column, then [extra]. [cells] returns the plain cells and the
   ratios. *)
let per_routine ~title ~header ?(extra = []) routines cells =
  let rows = List.map (fun (t : P.routine) -> (t.entry.name, cells t)) routines in
  let average i =
    T.fmt_ratio (T.average (List.map (fun (_, (_, r)) -> List.nth r i) rows))
  in
  let average_row =
    match rows with
    | [] -> []
    | (_, (c, r)) :: _ ->
      ("AVERAGE" :: List.map (fun _ -> "") c) @ List.mapi (fun i _ -> average i) r
  in
  T.print ~title ~header
    (List.map (fun (n, (c, r)) -> (n :: c) @ List.map T.fmt_ratio r) rows
    @ (average_row :: extra))

let graph_bytes ~round (t : P.routine) p =
  opt
    (fun (g : Baseline.Ig_coalesce.stats) ->
      Option.value ~default:0 (List.nth_opt g.graph_bytes_per_round round))
    (P.route_of t p).graph

let print_table1 routines timing =
  let bytes p t = graph_bytes ~round:0 t p + graph_bytes ~round:1 t p in
  let rows =
    List.map
      (fun (t : P.routine) ->
        let tb = (timing t).briggs_s and ts = (timing t).briggs_star_s in
        ( tb /. ts,
          t.entry.name :: T.fmt_seconds tb :: T.fmt_seconds ts
          :: T.fmt_ratio (tb /. ts)
          :: List.concat_map
               (fun round ->
                 List.map
                   (fun p -> T.fmt_bytes (graph_bytes ~round t p))
                   [ P.Briggs; P.Briggs_star ])
               [ 0; 1 ] ))
      routines
  in
  T.print
    ~title:
      "Table 1: interference-graph coalescers -- time and graph memory \
       (first/second build pass)"
    ~header:
      [
        "File"; "Briggs t"; "Briggs* t"; "t ratio"; "B mem p1"; "B* mem p1";
        "B mem p2"; "B* mem p2";
      ]
    (List.map snd rows
    @ [
        [
          "AVERAGE"; ""; ""; T.fmt_ratio (T.average (List.map fst rows)); "";
          ""; "";
          Printf.sprintf "mem x%.1f"
            (float_of_int (sum (bytes P.Briggs) routines)
            /. float_of_int (max 1 (sum (bytes P.Briggs_star) routines)));
        ];
      ])

let print_table2 routines timing =
  per_routine
    ~title:
      "Table 2: SSA-to-CFG conversion times (from SSA form; SSA \
       construction in its own column)"
    ~header:
      [
        "File"; "SSA"; "Standard"; "New"; "Briggs"; "Briggs*"; "New/Std";
        "New/Briggs*";
      ]
    routines
    (fun t ->
      let tm = timing t in
      let c p = List.assoc p tm.convert_s in
      ( T.fmt_seconds tm.construct_s :: List.map (fun p -> T.fmt_seconds (c p)) P.all,
        [ c P.New /. c P.Standard; c P.New /. c P.Briggs_star ] ))

let print_table3 routines =
  per_routine ~title:"Table 3: working memory of the conversions"
    ~header:
      [ "File"; "Standard"; "New"; "Briggs*"; "Briggs"; "New/Std"; "New/Briggs" ]
    routines
    (fun t ->
      let m p = (P.route_of t p).model_bytes in
      ( List.map
          (fun p -> T.fmt_bytes (m p))
          [ P.Standard; P.New; P.Briggs_star; P.Briggs ],
        [ ratio (m P.New) (m P.Standard); ratio (m P.New) (m P.Briggs) ] ))

(* Tables 4 and 5: one count per route, with [first] columns ahead of
   them, ratios and a TOTAL row. *)
let print_copies ~title ?(first = []) kernels count =
  let counts t =
    List.map (fun (_, f) -> f t) first
    @ List.map (fun p -> count (P.route_of t p)) P.all
  in
  per_routine ~title
    ~header:
      (("File" :: List.map fst first)
      @ [ "Standard"; "New"; "Briggs"; "Briggs*"; "New/Std"; "New/Briggs*" ])
    ~extra:
      [ "TOTAL" :: List.map string_of_int (sum_columns (List.map counts kernels)) ]
    kernels
    (fun t ->
      let c p = count (P.route_of t p) in
      ( List.map string_of_int (counts t),
        [ ratio (c P.New) (c P.Standard); ratio (c P.New) (c P.Briggs_star) ] ))

let allocation f t p = opt f (P.route_of t p).allocation

let print_allocation kernels =
  let spilled (a : Regalloc.stats) = a.spilled_ranges
  and spill_ops (a : Regalloc.stats) = a.spill_loads + a.spill_stores in
  let cells t =
    List.map (allocation spilled t) P.all @ List.map (allocation spill_ops t) P.all
  in
  T.print
    ~title:
      (Printf.sprintf
         "Register allocation (k=%d) downstream of each conversion: spilled \
          live ranges and executed spill loads+stores"
         tables_registers)
    ~header:
      [
        "File"; "spill Std"; "spill New"; "spill B"; "spill B*"; "ops Std";
        "ops New"; "ops B"; "ops B*";
      ]
    (List.map
       (fun (t : P.routine) -> t.entry.name :: List.map string_of_int (cells t))
       kernels
    @ [ "TOTAL" :: List.map string_of_int (sum_columns (List.map cells kernels)) ])

let aggregate_row ~all ~kernels timing p =
  let on routines f = sum (fun t -> f (P.route_of t p)) routines in
  let graph f = on all (fun r -> opt f r.graph) in
  let graph_max f =
    List.fold_left
      (fun acc t ->
        max acc
          (opt
             (fun (g : Baseline.Ig_coalesce.stats) -> List.fold_left max 0 (f g))
             (P.route_of t p).graph))
      0 all
  in
  let alloc f = sum (fun t -> allocation f t p) kernels in
  {
    tr_name = P.name p;
    tr_spec = P.spec_of p;
    tr_convert_s =
      List.fold_left (fun acc t -> acc +. List.assoc p (timing t).convert_s) 0.0 all;
    tr_copies_inserted = on all (fun r -> r.copies_inserted);
    tr_copies_eliminated = on all (fun r -> r.copies_eliminated);
    tr_static_copies = on all (fun r -> r.static_copies);
    tr_ig_rounds = graph (fun g -> g.rounds);
    tr_ig_peak_nodes = graph_max (fun g -> g.graph_nodes_per_round);
    tr_ig_peak_edges = graph_max (fun g -> g.graph_edges_per_round);
    tr_ig_peak_bytes = graph (fun g -> g.peak_graph_bytes);
    tr_copies_executed = on kernels (fun r -> opt Fun.id r.copies_executed);
    tr_spilled_ranges = alloc (fun a -> a.spilled_ranges);
    tr_spill_loads = alloc (fun a -> a.spill_loads);
    tr_spill_stores = alloc (fun a -> a.spill_stores);
    tr_colors_max =
      List.fold_left (fun acc t -> max acc (allocation (fun a -> a.colors_used) t p)) 0 kernels;
  }

let print_aggregates rows =
  T.print
    ~title:
      (Printf.sprintf
         "Tables 1-3 aggregate: conversion time, copies and peak graph \
          size per pipeline (kernels + large; SSA construction %s in all; \
          Briggs/Briggs* peak-memory ratio %.0fx)"
         (T.fmt_seconds !tables_construct_s) !tables_memory_ratio)
    ~header:
      [
        "pipeline"; "conv t"; "ins"; "elim"; "static"; "IG rounds";
        "IG peak nodes"; "IG peak edges"; "IG peak bytes";
      ]
    (List.map
       (fun r ->
         [
           r.tr_name;
           T.fmt_seconds r.tr_convert_s;
           string_of_int r.tr_copies_inserted;
           string_of_int r.tr_copies_eliminated;
           string_of_int r.tr_static_copies;
           string_of_int r.tr_ig_rounds;
           string_of_int r.tr_ig_peak_nodes;
           string_of_int r.tr_ig_peak_edges;
           T.fmt_bytes r.tr_ig_peak_bytes;
         ])
       rows);
  T.print
    ~title:
      (Printf.sprintf
         "Tables 4-5 + allocation: dynamic copies and downstream \
          register allocation (kernels, k=%d)"
         tables_registers)
    ~header:
      [
        "pipeline"; "dyn copies"; "spilled"; "spill loads"; "spill stores";
        "colors max";
      ]
    (List.map
       (fun r ->
         [
           r.tr_name;
           string_of_int r.tr_copies_executed;
           string_of_int r.tr_spilled_ranges;
           string_of_int r.tr_spill_loads;
           string_of_int r.tr_spill_stores;
           string_of_int r.tr_colors_max;
         ])
       rows)

let tables () =
  let ks = kernels () in
  let ev =
    P.evaluate ~registers:tables_registers ~kernels:ks
      ~large:(Workloads.Suite.large ())
  in
  let all = ev.routines in
  let kernels = List.filter (fun (t : P.routine) -> List.memq t.entry ks) all in
  let timings = List.map (fun t -> (t, time_routine t)) all in
  let timing t = List.assq t timings in
  print_table1 all timing;
  print_table2 all timing;
  print_table3 all;
  print_copies ~title:"Table 4: dynamic copies executed" kernels (fun r ->
      opt Fun.id r.copies_executed);
  print_copies
    ~title:
      "Table 5: static copies remaining (Sreedhar Method I, correct by \
       construction, is the ceiling)"
    ~first:[ ("Sreedhar-I", fun (t : P.routine) -> opt Fun.id t.sreedhar_copies) ]
    kernels
    (fun r -> r.static_copies);
  print_allocation kernels;
  tables_results := List.map (aggregate_row ~all ~kernels timing) P.all;
  tables_memory_ratio := ev.memory_ratio;
  tables_construct_s :=
    List.fold_left (fun acc t -> acc +. (timing t).construct_s) 0.0 all;
  print_aggregates !tables_results

(* ------------------------------------------------------------------ *)
(* metrics: the Obs counter vectors over the kernel suite — the same   *)
(* numbers the golden metrics-regression test pins down.               *)
(* ------------------------------------------------------------------ *)

let metrics () =
  let funcs =
    List.map (fun (e : Workloads.Suite.entry) -> e.func) (kernels ())
  in
  Harness.Obs_report.print (Harness.Obs_report.collect funcs)

(* ------------------------------------------------------------------ *)
(* JSON emission: a perf trajectory future PRs can diff against.       *)
(* ------------------------------------------------------------------ *)

let emit_json ~path ~fast timings =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  (* repro-bench/4: convert_s times the conversion pass alone, from SSA
     form; construct_s is SSA construction, once per routine. *)
  out "  \"schema\": \"repro-bench/4\",\n";
  out "  \"fast\": %b,\n" fast;
  out "  \"quota_s\": %g,\n" !quota;
  out "  \"targets\": [\n";
  List.iteri
    (fun i (name, wall_s) ->
      out "    {\"name\": %S, \"wall_s\": %.6f}%s\n" name wall_s
        (if i = List.length timings - 1 then "" else ","))
    timings;
  out "  ],\n";
  out "  \"tables\": {\n";
  out "    \"registers\": %d,\n" tables_registers;
  out "    \"briggs_star_memory_ratio\": %.2f,\n" !tables_memory_ratio;
  out "    \"construct_s\": %.6f,\n" !tables_construct_s;
  out "    \"rows\": [\n";
  let tr = !tables_results in
  List.iteri
    (fun i r ->
      out
        "      {\"pipeline\": %S, \"spec\": %S, \"convert_s\": %.6f, \
         \"copies_inserted\": %d, \"copies_eliminated\": %d, \
         \"static_copies\": %d, \"dynamic_copies\": %d, \"ig_rounds\": %d, \
         \"ig_peak_nodes\": %d, \"ig_peak_edges\": %d, \"ig_peak_bytes\": \
         %d, \"spilled_ranges\": %d, \"spill_loads\": %d, \"spill_stores\": \
         %d, \"colors_max\": %d}%s\n"
        r.tr_name r.tr_spec r.tr_convert_s r.tr_copies_inserted
        r.tr_copies_eliminated r.tr_static_copies r.tr_copies_executed
        r.tr_ig_rounds r.tr_ig_peak_nodes r.tr_ig_peak_edges
        r.tr_ig_peak_bytes r.tr_spilled_ranges r.tr_spill_loads
        r.tr_spill_stores r.tr_colors_max
        (if i = List.length tr - 1 then "" else ","))
    tr;
  out "    ]\n";
  out "  }\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let targets =
  [
    ("tables", tables); ("scaling", scaling); ("ablation", ablation);
    ("passes", pass_pipelines); ("metrics", metrics);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fast = List.mem "--fast" args in
  let json = List.mem "--json" args in
  if fast then quota := 0.05;
  let args = List.filter (fun a -> a <> "--fast" && a <> "--json") args in
  let what =
    List.concat_map
      (fun name ->
        if name = "all" then List.map fst targets
        else if List.mem_assoc name targets then [ name ]
        else begin
          Printf.eprintf "unknown target %S (targets: %s, all)\n" name
            (String.concat ", " (List.map fst targets));
          exit 2
        end)
      (if args = [] then [ "all" ] else args)
  in
  let timings =
    List.map (fun name -> (name, snd (M.wall (List.assoc name targets)))) what
  in
  if json then emit_json ~path:"bench_main.json" ~fast timings
