(* The facts a compile carries from pass to pass: a split CFG and its
   updated dominator tree against a fresh build and solve of the split
   function, field by field; the CFG comparison the SSA validator reuses a
   tree under; the graph coalescer's rounds keeping the first round's
   CFG; a pipeline run with facts against the layers run without; and
   awkward inputs pinned through all four routes. *)

open Helpers
module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance
module Facts = Analysis.Facts

(* Every query of a CFG, label by label. *)
let cfg_fields cfg =
  let n = Cfg.num_blocks cfg in
  ( (Cfg.entry cfg, n, Cfg.num_edges cfg),
    List.init n (fun l ->
        ( Cfg.succs_list cfg l,
          Cfg.preds_list cfg l,
          Cfg.reachable cfg l,
          Cfg.postorder_index cfg l )),
    (Array.to_list (Cfg.postorder cfg), Array.to_list (Cfg.reverse_postorder cfg)) )

(* Every query of a dominator tree over [n] labels. *)
let dom_fields n dom =
  ( List.init n (fun l ->
        ( Dominance.idom dom l,
          Dominance.children dom l,
          (Dominance.preorder dom l, Dominance.max_preorder dom l),
          Dominance.depth dom l,
          Dominance.frontier dom l )),
    Array.to_list (Dominance.dom_tree_order dom) )

let same_cfg name carried fresh =
  checkb (name ^ ": carried CFG = Cfg.of_func") true (cfg_fields carried = cfg_fields fresh)

let same_dom name n carried fresh =
  checkb (name ^ ": carried tree = Dominance.compute") true
    (dom_fields n carried = dom_fields n fresh)

(* Critical-edge splitting as a hash table of split edges, probed for
   every successor and φ argument of every block: the oracle for
   [Ir.Edge_split]'s output. *)
let reference_split (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let edges = ref [] in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        Cfg.iter_succs cfg b.label (fun s ->
            if Ir.Edge_split.is_critical cfg ~src:b.label ~dst:s then
              edges := (b.label, s) :: !edges))
    f.blocks;
  let edges = Array.of_list (List.rev !edges) in
  if edges = [||] then f
  else begin
    let n = Ir.num_blocks f in
    let fresh = Hashtbl.create 8 in
    Array.iteri (fun i e -> Hashtbl.add fresh e (n + i)) edges;
    let find e d = Option.value (Hashtbl.find_opt fresh e) ~default:d in
    Ir.with_blocks f
      (Array.init
         (n + Array.length edges)
         (fun l ->
           if l < n then
             let b = f.blocks.(l) in
             {
               b with
               term = Ir.map_successors (fun s -> find (l, s) s) b.term;
               phis =
                 List.map
                   (fun (p : Ir.phi) ->
                     { p with args = List.map (fun (pl, op) -> (find (pl, l) pl, op)) p.args })
                   b.phis;
             }
           else
             { Ir.label = l; phis = []; body = []; term = Jump (snd edges.(l - n)) }))
  end

(* The awkward φ-free inputs: a loop with an unreachable block that
   branches into it, a self-loop that rotates two values, and a guarded
   loop whose header is entered over a critical edge (so the block
   splitting that edge becomes the header's idom). *)
let unreach_text =
  {|func unreach(n) {  # entry b0
b0:
  i := 0
  s := 0
  jump b1
b1:
  c := lt i, n
  br c, b2, b3
b2:
  s := add s, i
  i := add i, 1
  jump b1
b3:
  ret s
b4:
  s := add s, 7
  br s, b1, b3
}|}

let selfloop_text =
  {|func selfloop(n) {  # entry b0
b0:
  i := 0
  s := 1
  jump b1
b1:
  t := s
  s := i
  i := add t, 1
  c := lt i, n
  br c, b1, b2
b2:
  r := sub i, s
  ret r
}|}

let guarded_text =
  {|func guarded(n) {  # entry b0
b0:
  i := 0
  s := 0
  c := lt 0, n
  br c, b1, b3
b1:
  t := lt i, n
  br t, b2, b3
b2:
  s := add s, i
  i := add i, 1
  jump b1
b3:
  ret s
}|}

let awkward () =
  List.map Ir.Parse.func_of_string [ unreach_text; selfloop_text; guarded_text ]

let strict_inputs () =
  List.map
    (fun (e : Workloads.Suite.entry) -> e.func)
    (Workloads.Suite.kernels () @ Workloads.Suite.large ()
    @ Workloads.Suite.adversarial ()
    @ Workloads.Suite.generated ~sizes:[ 20; 60 ] ~seeds:[ 1; 2; 3; 4; 5; 6 ] ())
  @ List.map
      (fun shape -> Workloads.Generator.adversarial shape ~size:9)
      Workloads.Generator.shapes
  @ awkward ()

(* Split from facts carrying a freshly solved tree, and hold the result to
   a fresh build and solve of the split function and to the reference
   split. Returns the number of edges split and of split targets whose
   idom moved. *)
let check_split name (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let dom = Dominance.compute f cfg in
  let split, facts = Facts.split_critical_edges { cfg; dom = Some dom; live = None } f in
  check Alcotest.string (name ^ ": split = reference")
    (Ir.Printer.func_to_string (reference_split f))
    (Ir.Printer.func_to_string split);
  let fresh = Cfg.of_func split in
  same_cfg name facts.cfg fresh;
  let fresh_dom = Dominance.compute split fresh in
  let n = Ir.num_blocks split in
  (match facts.dom with
  | Some carried -> same_dom name n carried fresh_dom
  | None -> Alcotest.failf "%s: the tree was dropped" name);
  let moved = ref 0 in
  for m = Ir.num_blocks f to n - 1 do
    match Cfg.succs_list fresh m with
    | [ dst ] when Dominance.idom fresh_dom dst <> Dominance.idom dom dst -> incr moved
    | _ -> ()
  done;
  (n - Ir.num_blocks f, !moved)

let test_split_facts () =
  let split = ref 0 and moved = ref 0 and unsplit = ref 0 in
  let count (s, m) =
    split := !split + s;
    moved := !moved + m;
    if s = 0 then incr unsplit
  in
  List.iter
    (fun (f : Ir.func) ->
      count (check_split f.name f);
      count (check_split (f.name ^ " (SSA)") (Ssa.Construct.run_exn f)))
    (strict_inputs ());
  (* Raw CFGs: unreachable blocks, irreducible loops, φs keyed by any
     labels at unreachable blocks. *)
  List.iteri
    (fun i f -> count (check_split (Printf.sprintf "raw %d" i) f))
    (Lazy.force Test_dataflow.raw_cfgs);
  (* Strict random CFGs: back edges, self-loops and irreducible loops. *)
  for seed = 0 to 299 do
    let rand = make_rand (7 * seed) in
    count
      (check_split (Printf.sprintf "random %d" seed)
         (random_cfg rand ~blocks:(2 + (seed mod 15)) ~regs:3))
  done;
  checkb "some edges split" true (!split > 0);
  checkb "some functions have no critical edge" true (!unsplit > 0);
  checkb "some split targets change idom" true (!moved > 0)

(* The SSA validator reuses a tree only over an equal CFG: construction's
   tree is solved over the input's CFG, which differs from the output's
   wherever an unreachable block had successors. *)
let test_validator_reuse () =
  let reused = ref 0 and refused = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      let cfg = Cfg.of_func f in
      checkb (f.name ^ ": Cfg.equal is reflexive") true (Cfg.equal cfg (Cfg.of_func f));
      let ssa, _, offered = Ssa.Construct.run_facts { cfg; dom = None; live = None } f in
      let ssa_cfg = Cfg.of_func ssa in
      let equal = Cfg.equal cfg ssa_cfg in
      checkb (f.name ^ ": Cfg.equal = same fields") (cfg_fields cfg = cfg_fields ssa_cfg) equal;
      if equal then incr reused else incr refused;
      checkb (f.name ^ ": reuse keeps the tree only over an equal CFG") equal
        (Option.is_some (Facts.reuse ~candidate:offered ssa_cfg).dom);
      match Ssa.Ssa_validate.run_facts ~candidate:offered ssa with
      | Error _ -> Alcotest.failf "%s: SSA rejected" f.name
      | Ok facts ->
        same_cfg f.name facts.cfg ssa_cfg;
        let dom = Option.get facts.dom in
        same_dom f.name (Ir.num_blocks ssa) dom (Dominance.compute ssa ssa_cfg))
    (strict_inputs ());
  checkb "some trees reused" true (!reused > 0);
  checkb "some trees refused (unreachable block with successors)" true (!refused > 0);
  (* A candidate over another function's CFG is never taken. *)
  let f = Ir.Parse.func_of_string guarded_text in
  let g = Ir.Parse.func_of_string selfloop_text in
  let gcfg = Cfg.of_func g in
  let candidate = { Facts.cfg = gcfg; dom = Some (Dominance.compute g gcfg); live = None } in
  checkb "foreign candidate refused" true
    (Option.is_none (Facts.reuse ~candidate (Cfg.of_func f)).dom)

(* Every round of the graph coalescer compiles [rename f find] for the
   round's live-range map, and uses [f]'s CFG for it. *)
let test_rounds_keep_cfg () =
  List.iteri
    (fun k (f : Ir.func) ->
      let inst = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run (Ssa.Construct.run_exn f)) in
      let cfg = Cfg.of_func inst in
      let rand = make_rand k in
      let uf = Support.Union_find.create inst.nregs in
      for _ = 1 to 3 do
        if inst.nregs > 0 then
          for _ = 1 to 1 + (inst.nregs / 4) do
            ignore (Support.Union_find.union uf (rand inst.nregs) (rand inst.nregs))
          done;
        let round = Baseline.Ig_coalesce.rename inst (Support.Union_find.find uf) in
        checkb (f.name ^ ": a round has the first round's CFG") true
          (cfg_fields (Cfg.of_func round) = cfg_fields cfg)
      done;
      List.iter
        (fun variant ->
          let facts = { Facts.cfg; dom = Some (Dominance.compute inst cfg); live = None } in
          let with_facts, s1 = Baseline.Ig_coalesce.run ~facts ~variant inst in
          let without, s2 = Baseline.Ig_coalesce.run ~variant inst in
          check Alcotest.string (f.name ^ ": same code with facts")
            (Ir.Printer.func_to_string without)
            (Ir.Printer.func_to_string with_facts);
          checkb (f.name ^ ": same stats with facts") true (s1 = s2))
        [ Baseline.Ig_coalesce.Briggs; Baseline.Ig_coalesce.Briggs_star ])
    (strict_inputs ())

(* A pipeline hands facts from pass to pass; the layers run on their own
   build everything themselves. The outputs must agree on every route. *)
let test_pipeline_vs_layers () =
  let module P = Harness.Pipelines in
  let layers p (f : Ir.func) =
    let ssa = Ssa.Construct.run_exn f in
    match p with
    | P.New -> Core.Coalesce.run_exn ssa
    | P.Standard -> Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa)
    | P.Briggs | P.Briggs_star | P.Briggs_star_fused ->
      let variant =
        if p = P.Briggs then Baseline.Ig_coalesce.Briggs else Baseline.Ig_coalesce.Briggs_star
      in
      Baseline.Ig_coalesce.run_exn ~variant
        (Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa))
  in
  List.iter
    (fun p ->
      let pipeline = Pass.Spec.parse_exn (P.spec_of p) in
      List.iter
        (fun (f : Ir.func) ->
          check Alcotest.string
            (Printf.sprintf "%s on %s" f.name (P.name p))
            (Ir.Printer.func_to_string (layers p f))
            (Ir.Printer.func_to_string (Pass.run pipeline f).output))
        (strict_inputs ()))
    P.all

(* Printed outputs of the awkward inputs on each route, taken before the
   passes carried facts. New, Briggs and Briggs* agree on all three. *)
let unreach_standard =
  {|func unreach(n.0) {  # entry b0
b0:
  s.0 := 0
  i.0 := 0
  jump b1
b1:
  c.0 := lt i.0, n.0
  br c.0, b2, b3
b2:
  s.1 := add s.0, i.0
  i.1 := add i.0, 1
  s.0 := s.1
  i.0 := i.1
  jump b1
b3:
  ret s.0
b4:
  ret
}|}

let unreach_coalesced =
  {|func unreach(n.0) {  # entry b0
b0:
  s.0 := 0
  i.0 := 0
  jump b1
b1:
  c.0 := lt i.0, n.0
  br c.0, b2, b3
b2:
  s.0 := add s.0, i.0
  i.0 := add i.0, 1
  jump b1
b3:
  ret s.0
b4:
  ret
}|}

let selfloop_all =
  {|func selfloop(n.0) {  # entry b0
b0:
  s.0 := 1
  i.0 := 0
  jump b1
b1:
  i.1 := add s.0, 1
  c.0 := lt i.1, n.0
  br c.0, b3, b2
b2:
  r.0 := sub i.1, i.0
  ret r.0
b3:
  s.0 := i.0
  i.0 := i.1
  jump b1
}|}

let guarded_standard =
  {|func guarded(n.0) {  # entry b0
b0:
  c.0 := lt 0, n.0
  br c.0, b4, b5
b1:
  t.0 := lt i.0, n.0
  br t.0, b2, b6
b2:
  s.1 := add s.0, i.0
  i.1 := add i.0, 1
  s.0 := s.1
  i.0 := i.1
  jump b1
b3:
  ret s.2
b4:
  s.0 := 0
  i.0 := 0
  jump b1
b5:
  s.2 := 0
  jump b3
b6:
  s.2 := s.0
  jump b3
}|}

let guarded_coalesced =
  {|func guarded(n.0) {  # entry b0
b0:
  c.0 := lt 0, n.0
  br c.0, b4, b5
b1:
  t.0 := lt i.0, n.0
  br t.0, b2, b6
b2:
  s.0 := add s.0, i.0
  i.0 := add i.0, 1
  jump b1
b3:
  ret s.0
b4:
  s.0 := 0
  i.0 := 0
  jump b1
b5:
  s.0 := 0
  jump b3
b6:
  jump b3
}|}

let test_awkward_pins () =
  let module P = Harness.Pipelines in
  let pins =
    [
      (unreach_text, unreach_standard, unreach_coalesced);
      (selfloop_text, selfloop_all, selfloop_all);
      (guarded_text, guarded_standard, guarded_coalesced);
    ]
  in
  List.iter
    (fun (text, standard, coalesced) ->
      let f = Ir.Parse.func_of_string text in
      List.iter
        (fun p ->
          let out =
            (Driver.Pipeline.compile_passes ~check:true
               (Pass.Spec.parse_exn (P.spec_of p))
               f)
              .output
          in
          check Alcotest.string
            (Printf.sprintf "%s on %s" f.name (P.name p))
            (if p = P.Standard then standard else coalesced)
            (Ir.Printer.func_to_string out))
        P.all)
    pins

let suite =
  [
    Alcotest.test_case "split CFG and tree = fresh build and solve" `Quick
      test_split_facts;
    Alcotest.test_case "SSA validator reuses a tree over an equal CFG only"
      `Quick test_validator_reuse;
    Alcotest.test_case "graph-coalescer rounds keep the first CFG" `Quick
      test_rounds_keep_cfg;
    Alcotest.test_case "pipeline with facts = layers without, four routes"
      `Quick test_pipeline_vs_layers;
    Alcotest.test_case "awkward inputs pinned through four routes" `Quick
      test_awkward_pins;
  ]
