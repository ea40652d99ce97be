(* Tests for the Chaitin/Briggs register allocator. *)

open Helpers

let kernels = lazy (Workloads.Suite.kernels ())

let coalesced (e : Workloads.Suite.entry) =
  Core.Coalesce.run_exn (Ssa.Construct.run_exn e.func)

let options k = { Regalloc.default_options with registers = k }

(* Semantics modulo the spill side-array the allocation actually used. *)
let equiv_modulo_spill ?(spill_array = Regalloc.spill_array) ~args before after =
  let a = Interp.run ~args before in
  let b = Interp.run ~args after in
  a.return_value = b.return_value
  && a.arrays = List.remove_assoc spill_array b.arrays

let test_no_spill_when_plenty () =
  let e = Workloads.Suite.find_exn "saxpy" in
  let f = coalesced e in
  let r = Regalloc.run ~options:(options 32) f in
  checki "no spills" 0 r.stats.spilled_ranges;
  checkb "colors within k" true (r.stats.colors_used <= 32);
  checkb "semantics" true (equiv_modulo_spill ~spill_array:r.spill_array ~args:e.args e.func r.func)

let test_spills_under_pressure () =
  (* fpppp has long expression chains: k=3 must force spills yet stay
     correct. *)
  let e = Workloads.Suite.find_exn "fpppp" in
  let f = coalesced e in
  let r = Regalloc.run ~options:(options 3) f in
  checkb "spilled something" true (r.stats.spilled_ranges > 0);
  checkb "loads inserted" true (r.stats.spill_loads > 0);
  checkb "stores inserted" true (r.stats.spill_stores > 0);
  checkb "colors within k" true (r.stats.colors_used <= 3);
  checkb "semantics" true (equiv_modulo_spill ~spill_array:r.spill_array ~args:e.args e.func r.func)

let test_kernels_allocate () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let f = coalesced e in
      List.iter
        (fun k ->
          let r = Regalloc.run ~options:(options k) f in
          checkb
            (Printf.sprintf "%s k=%d colors<=k" e.name k)
            true
            (r.stats.colors_used <= k);
          checkb
            (Printf.sprintf "%s k=%d valid" e.name k)
            true
            (Ir.Validate.run r.func = []);
          checkb
            (Printf.sprintf "%s k=%d semantics" e.name k)
            true
            (equiv_modulo_spill ~spill_array:r.spill_array ~args:e.args e.func r.func))
        [ 4; 8 ])
    (Lazy.force kernels)

(* The defining invariant: interfering registers of the pre-rewrite code
   get different colors. *)
let test_assignment_is_a_coloring () =
  let e = Workloads.Suite.find_exn "twldrv" in
  let f = coalesced e in
  (* Re-run the allocation and recheck the final function's graph with k
     colors: rebuilding the IG on the *rewritten* code must show that no
     two simultaneously-live registers share an id, i.e. the graph of the
     output has no self-conflicts by construction. Instead we check the
     stronger statement on the pre-rewrite assignment via a fresh graph. *)
  let r = Regalloc.run ~options:(options 6) f in
  let out = r.func in
  let cfg = Ir.Cfg.of_func out in
  let live = Analysis.Liveness.compute out cfg in
  (* In the rewritten code every register id *is* a color; validity of the
     allocation means the rewritten code is still strict & correct, and the
     live sets never exceed k registers... they can, transiently?  No: each
     live register is a distinct color, so |live| <= colors_used. *)
  let ok = ref true in
  for l = 0 to Ir.num_blocks out - 1 do
    if Ir.Cfg.reachable cfg l then begin
      let c = Support.Bitset.cardinal (Analysis.Liveness.live_in live l) in
      if c > r.stats.colors_used then ok := false
    end
  done;
  checkb "live-in never exceeds the register count" true !ok

let test_rejects_phis () =
  let ssa = Ssa.Construct.run_exn (diamond ()) in
  checkb "phi input rejected" true
    (try
       ignore (Regalloc.run ssa);
       false
     with Invalid_argument _ -> true)

let test_spill_metric_variants () =
  let e = Workloads.Suite.find_exn "tomcatv" in
  let f = coalesced e in
  List.iter
    (fun metric ->
      let r =
        Regalloc.run
          ~options:{ (options 4) with spill_metric = metric }
          f
      in
      checkb "correct under both metrics" true
        (equiv_modulo_spill ~spill_array:r.spill_array ~args:e.args e.func r.func))
    [ Regalloc.Cost_over_degree; Regalloc.Plain_cost ]

let prop_random_allocation =
  QCheck.Test.make ~count:40 ~name:"random programs allocate correctly"
    QCheck.(triple (int_bound 10_000) (int_range 10 50) (int_range 3 10))
    (fun (seed, size, k) ->
      let f = random_program seed size in
      let c = Core.Coalesce.run_exn (Ssa.Construct.run_exn f) in
      let r = Regalloc.run ~options:(options k) c in
      r.stats.colors_used <= k
      && Ir.Validate.run r.func = []
      && equiv_modulo_spill ~spill_array:r.spill_array ~args:run_args f r.func)

(* Regression for the spill-array capture bug: a program that already
   loads/stores arrays named "$spill" (and "$spill.1") must not have its
   data aliased with spill slots — the allocator has to reserve a name the
   function provably never mentions. *)
let test_hostile_spill_array_name () =
  let b = Ir.Builder.create "hostile" in
  let p = Ir.Builder.add_param ~name:"a" b in
  let entry = Ir.Builder.add_block b in
  let push i = Ir.Builder.push b entry i in
  (* User data in the very arrays the allocator would love to reserve. *)
  push (Ir.Store { arr = "$spill"; idx = Ir.Const (Ir.Int 0); src = Ir.Reg p });
  push
    (Ir.Store
       { arr = "$spill.1"; idx = Ir.Const (Ir.Int 0); src = Ir.Const (Ir.Int 42) });
  (* Six simultaneously-live loads: a 7-clique with [p], so k=3 must spill. *)
  let loads =
    List.init 6 (fun i ->
        let t = Ir.Builder.fresh_reg b in
        push (Ir.Load { dst = t; arr = "$spill"; idx = Ir.Const (Ir.Int i) });
        t)
  in
  let sum =
    List.fold_left
      (fun acc t ->
        let d = Ir.Builder.fresh_reg b in
        push (Ir.Binop { op = Ir.Add; dst = d; l = Ir.Reg acc; r = Ir.Reg t });
        d)
      p loads
  in
  (* Write the sum back into user memory so the final arrays are sensitive
     to any aliasing between user data and spill slots. *)
  push (Ir.Store { arr = "$spill"; idx = Ir.Const (Ir.Int 1); src = Ir.Reg sum });
  Ir.Builder.terminate b entry (Ir.Return (Some (Ir.Reg sum)));
  let f = Ir.Builder.finish b in
  let r = Regalloc.run ~options:(options 3) f in
  checkb "forced spills" true (r.stats.spilled_ranges > 0);
  checkb "reserved name is fresh" true
    (r.spill_array <> "$spill" && r.spill_array <> "$spill.1");
  check Alcotest.string "reserved name" "$spill.2" r.spill_array;
  let args = [ Ir.Int 7 ] in
  checkb "semantics incl. user $spill arrays" true
    (equiv_modulo_spill ~spill_array:r.spill_array ~args f r.func);
  let before = Interp.run ~args f in
  let after = Interp.run ~args r.func in
  checkb "user $spill contents preserved" true
    (List.assoc "$spill" before.arrays = List.assoc "$spill" after.arrays);
  checkb "user $spill.1 contents preserved" true
    (List.assoc "$spill.1" before.arrays = List.assoc "$spill.1" after.arrays)

(* The worklist simplify must reproduce the reference rescan loop exactly:
   identical colorings on success, identical spill sets on failure, under
   both spill metrics. *)
let prop_try_color_differential =
  QCheck.Test.make ~count:60 ~name:"worklist try_color = reference try_color"
    QCheck.(triple (int_bound 10_000) (int_range 10 60) (int_range 2 8))
    (fun (seed, size, k) ->
      let f =
        Core.Coalesce.run_exn (Ssa.Construct.run_exn (random_program seed size))
      in
      let cfg = Ir.Cfg.of_func f in
      let live = Analysis.Liveness.compute f cfg in
      let graph = Baseline.Igraph.build_full f cfg live in
      (* Occurrence counts as costs — enough to exercise the tie-breaking
         spill-candidate scan. *)
      let costs = Array.make f.Ir.nregs 0.0 in
      Ir.iter_instrs f (fun _ i ->
          List.iter (fun r -> costs.(r) <- costs.(r) +. 1.0) (Ir.uses i);
          Option.iter (fun r -> costs.(r) <- costs.(r) +. 1.0) (Ir.def i));
      let is_temp _ = false in
      List.for_all
        (fun metric ->
          let opt = { (options k) with spill_metric = metric } in
          Regalloc.try_color ~options:opt ~is_temp f graph costs
          = Regalloc.try_color_reference ~options:opt ~is_temp f graph costs)
        [ Regalloc.Cost_over_degree; Regalloc.Plain_cost ])

(* Stats pinned before the worklist-simplify and hoisted-loop-weights
   refactors: (kernel, k, (rounds, spilled_ranges, spill_loads,
   spill_stores, colors_used)). Any drift means the rewrite changed
   allocator behavior, which it must not. *)
let pinned_stats =
  [
    ("tomcatv", 4, (4, 20, 42, 25, 4)); ("tomcatv", 8, (2, 4, 7, 6, 8));
    ("blts", 4, (4, 5, 12, 6, 4)); ("blts", 8, (1, 0, 0, 0, 7));
    ("buts", 4, (4, 7, 21, 8, 4)); ("buts", 8, (1, 0, 0, 0, 7));
    ("getbx", 4, (3, 3, 5, 3, 4)); ("getbx", 8, (1, 0, 0, 0, 6));
    ("twldrv", 4, (3, 13, 32, 18, 4)); ("twldrv", 8, (4, 7, 12, 11, 8));
    ("smoothx", 4, (2, 3, 8, 6, 4)); ("smoothx", 8, (1, 0, 0, 0, 7));
    ("rhs", 4, (2, 3, 5, 5, 4)); ("rhs", 8, (1, 0, 0, 0, 6));
    ("parmvrx", 4, (4, 11, 22, 17, 4)); ("parmvrx", 8, (2, 1, 1, 1, 8));
    ("saxpy", 4, (3, 3, 4, 4, 4)); ("saxpy", 8, (1, 0, 0, 0, 6));
    ("initx", 4, (2, 2, 3, 2, 4)); ("initx", 8, (1, 0, 0, 0, 6));
    ("fieldx", 4, (3, 4, 6, 5, 4)); ("fieldx", 8, (1, 0, 0, 0, 6));
    ("parmovx", 4, (3, 6, 10, 10, 4)); ("parmovx", 8, (2, 1, 1, 1, 8));
    ("parmvex", 4, (3, 10, 17, 15, 4)); ("parmvex", 8, (1, 0, 0, 0, 7));
    ("radfgx", 4, (3, 8, 16, 8, 4)); ("radfgx", 8, (3, 4, 6, 4, 8));
    ("radbgx", 4, (4, 7, 12, 10, 4)); ("radbgx", 8, (2, 1, 1, 1, 8));
    ("fpppp", 4, (3, 11, 22, 13, 4)); ("fpppp", 8, (2, 2, 2, 2, 8));
    ("jacld", 4, (3, 5, 9, 5, 4)); ("jacld", 8, (1, 0, 0, 0, 7));
    ("advbndx", 4, (2, 5, 15, 6, 4)); ("advbndx", 8, (2, 1, 2, 1, 8));
    ("deseco", 4, (3, 9, 17, 15, 4)); ("deseco", 8, (2, 1, 1, 1, 8));
    ("zeroin", 4, (3, 10, 15, 15, 4)); ("zeroin", 8, (2, 2, 4, 2, 8));
    ("fmin", 4, (2, 5, 10, 9, 4)); ("fmin", 8, (2, 1, 1, 1, 8));
    ("spline", 4, (3, 7, 16, 7, 4)); ("spline", 8, (2, 1, 1, 1, 8));
    ("seval", 4, (4, 7, 15, 10, 4)); ("seval", 8, (2, 1, 1, 1, 8));
    ("decomp", 4, (3, 13, 39, 19, 4)); ("decomp", 8, (2, 1, 2, 2, 8));
    ("solve", 4, (2, 5, 22, 7, 4)); ("solve", 8, (1, 0, 0, 0, 7));
    ("quanc8", 4, (3, 9, 11, 10, 4)); ("quanc8", 8, (3, 5, 6, 5, 8));
    ("urand", 4, (3, 3, 4, 4, 4)); ("urand", 8, (1, 0, 0, 0, 6));
    ("rkf45", 4, (2, 12, 34, 15, 4)); ("rkf45", 8, (2, 6, 10, 9, 8));
    ("svdrot", 4, (4, 5, 9, 6, 4)); ("svdrot", 8, (1, 0, 0, 0, 7));
    ("ssor", 4, (2, 3, 8, 4, 4)); ("ssor", 8, (1, 0, 0, 0, 7));
    ("l2norm", 4, (4, 5, 10, 7, 4)); ("l2norm", 8, (1, 0, 0, 0, 7));
    ("exact", 4, (3, 11, 22, 14, 4)); ("exact", 8, (2, 3, 6, 5, 8));
    ("pintgr", 4, (2, 4, 7, 7, 4)); ("pintgr", 8, (1, 0, 0, 0, 8));
    ("setbv", 4, (3, 4, 10, 4, 4)); ("setbv", 8, (1, 0, 0, 0, 6));
    ("dotprod", 4, (2, 5, 10, 9, 4)); ("dotprod", 8, (2, 1, 2, 1, 8));
    ("matmul", 4, (3, 4, 11, 7, 4)); ("matmul", 8, (1, 0, 0, 0, 7));
    ("trid", 4, (2, 2, 7, 2, 4)); ("trid", 8, (1, 0, 0, 0, 6));
    ("gauss", 4, (2, 5, 9, 7, 4)); ("gauss", 8, (2, 1, 1, 1, 8));
    ("fft2", 4, (2, 1, 6, 2, 4)); ("fft2", 8, (1, 0, 0, 0, 6));
    ("histo", 4, (2, 1, 1, 1, 4)); ("histo", 8, (1, 0, 0, 0, 5));
    ("bubble", 4, (2, 2, 7, 3, 4)); ("bubble", 8, (1, 0, 0, 0, 6));
    ("horner", 4, (3, 5, 8, 5, 4)); ("horner", 8, (1, 0, 0, 0, 8));
    ("scan", 4, (2, 2, 7, 4, 4)); ("scan", 8, (1, 0, 0, 0, 6));
  ]

let test_pinned_kernel_stats () =
  List.iter
    (fun (name, k, expected) ->
      let e = Workloads.Suite.find_exn name in
      let r = Regalloc.run ~options:(options k) (coalesced e) in
      let got =
        ( r.Regalloc.stats.rounds,
          r.stats.spilled_ranges,
          r.stats.spill_loads,
          r.stats.spill_stores,
          r.stats.colors_used )
      in
      checkb (Printf.sprintf "%s k=%d stats pinned" name k) true (got = expected))
    pinned_stats

(* Handed facts change no allocation: with the input's CFG and dominator
   tree, every round reuses that graph, and the output, assignment and
   statistics equal those of a run that builds its own, over the kernels
   and the large routines at k = 4 and 8. *)
let test_handed_facts () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let f = coalesced e in
      let facts = Analysis.Facts.of_func f in
      let facts = { facts with dom = Some (Analysis.Facts.dominance f facts) } in
      List.iter
        (fun k ->
          let own = Regalloc.run ~options:(options k) f in
          let handed = Regalloc.run ~options:(options k) ~facts f in
          checkb (Printf.sprintf "%s k=%d: same output" e.name k) true
            (Ir.Printer.func_to_string own.func
             = Ir.Printer.func_to_string handed.func
            && own.assignment = handed.assignment
            && own.stats = handed.stats))
        [ 4; 8 ])
    (Workloads.Suite.kernels () @ Workloads.Suite.large ())

let suite =
  [
    Alcotest.test_case "handed facts change no allocation" `Quick
      test_handed_facts;
    Alcotest.test_case "no spill with many registers" `Quick test_no_spill_when_plenty;
    Alcotest.test_case "spills under pressure" `Quick test_spills_under_pressure;
    Alcotest.test_case "kernels allocate at k=4 and k=8" `Slow test_kernels_allocate;
    Alcotest.test_case "assignment is a coloring" `Quick
      test_assignment_is_a_coloring;
    Alcotest.test_case "rejects phis" `Quick test_rejects_phis;
    Alcotest.test_case "spill metric variants" `Quick test_spill_metric_variants;
    Alcotest.test_case "hostile $spill array name" `Quick
      test_hostile_spill_array_name;
    Alcotest.test_case "kernel stats pinned across refactor" `Slow
      test_pinned_kernel_stats;
    QCheck_alcotest.to_alcotest prop_random_allocation;
    QCheck_alcotest.to_alcotest prop_try_color_differential;
  ]
