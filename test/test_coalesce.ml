(* Tests for the paper's coalescer (Core.Coalesce): correctness on the
   figures, semantic preservation everywhere, the non-interference invariant
   of congruence classes, and the copy-count comparisons of the evaluation. *)

open Helpers

let kernels = lazy (Workloads.Suite.kernels ())

let phi_count f =
  let n = ref 0 in
  Ir.iter_phis f (fun _ _ -> incr n);
  !n

let test_virtual_swap () =
  (* Figures 3 and 4: after folding, x2 = φ(a1,b1), y2 = φ(b1,a1) with
     a1,b1 constants 1 and 2. Correct output must return 1/2 = 0 on one
     side and 2/1 = 2 on the other. *)
  let f = virtual_swap_ssa () in
  let out, stats = Core.Coalesce.run f in
  checkb "valid" true (Ir.Validate.run out = []);
  checki "no phis left" 0 (phi_count out);
  let run p =
    match (Interp.run ~args:[ Ir.Int p ] out).return_value with
    | Some (Ir.Int v) -> v
    | _ -> Alcotest.fail "expected an int"
  in
  checki "left path: 1/2" 0 (run 1);
  checki "right path: 2/1" 2 (run 0);
  (* The naive instantiation would insert 4 copies; the coalescer must do
     better on at least one side. *)
  let naive = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run f) in
  checkb "fewer or equal copies than naive" true
    (Ir.count_copies out <= Ir.count_copies naive);
  checkb "some interference was found" true
    (stats.filter_refusals + stats.forest_detached + stats.local_detached
     + stats.rename_detached + stats.const_args > 0)

let test_swap_variables () =
  (* The same shape with real variables (not constants) so the φs carry
     registers: the swap semantics must survive coalescing. *)
  let src =
    {|
    func vswap(p, u, v) {
      x = u;
      y = v;
      if (p > 0) {
        x = v;
        y = u;
      }
      return x * 100 + y;
    }
    |}
  in
  let f = Frontend.Lower.compile_one src in
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  List.iter
    (fun p ->
      assert_equiv
        ~args:[ Ir.Int p; Ir.Int 7; Ir.Int 9 ]
        (Printf.sprintf "vswap p=%d" p) f out)
    [ 0; 1 ]

let test_loop_counter_coalesces () =
  (* The φ-chain of a simple loop counter must collapse to zero copies. *)
  let f = counting_loop () in
  let ssa = Ssa.Construct.run_exn f in
  let out, stats = Core.Coalesce.run ssa in
  (* The φ-chain collapses; only the constant initialization i := 0 (a
     constant φ argument, which can never be unioned) remains. *)
  checki "only the constant init remains" 1 (Ir.count_copies out);
  checki "one class" 1 stats.classes;
  assert_equiv ~args:[ Ir.Int 6 ] "loop" f out

let test_kernels_all_pipelines_equivalent () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let out, _ = Core.Coalesce.run ssa in
      checkb (e.name ^ ": valid") true (Ir.Validate.run out = []);
      checki (e.name ^ ": no phis") 0 (phi_count out);
      assert_equiv ~args:e.args (e.name ^ ": semantics") e.func out)
    (Lazy.force kernels)

let test_never_worse_than_standard () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      let coalesced = Core.Coalesce.run_exn ssa in
      let naive = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
      checkb
        (Printf.sprintf "%s: %d <= %d" e.name (Ir.count_copies coalesced)
           (Ir.count_copies naive))
        true
        (Ir.count_copies coalesced <= Ir.count_copies naive))
    (Lazy.force kernels)

(* The central safety invariant (Section 3.5): members of one congruence
   class never interfere, checked with the precise oracle. *)
let classes_non_interfering f =
  let split = Ir.Edge_split.run f in
  let classes = Core.Coalesce.congruence_classes split in
  let cfg = Ir.Cfg.of_func split in
  let dom = Analysis.Dominance.compute split cfg in
  let live = Analysis.Liveness.compute split cfg in
  let sites = Core.Interference.def_sites split in
  List.for_all
    (fun members ->
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a = b || not (Core.Interference.precise split dom live sites a b))
            members)
        members)
    classes

let test_classes_non_interfering_kernels () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let ssa = Ssa.Construct.run_exn e.func in
      checkb (e.name ^ ": classes interference-free") true
        (classes_non_interfering ssa))
    (Lazy.force kernels)

let prop_classes_non_interfering =
  QCheck.Test.make ~count:80 ~name:"congruence classes are interference-free"
    QCheck.(pair (int_bound 10_000) (int_range 10 70))
    (fun (seed, size) ->
      let f = random_program seed size in
      classes_non_interfering (Ssa.Construct.run_exn f))

let prop_semantics_preserved =
  QCheck.Test.make ~count:80 ~name:"coalescing preserves semantics (random)"
    QCheck.(pair (int_bound 10_000) (int_range 10 70))
    (fun (seed, size) ->
      let f = random_program seed size in
      let ssa = Ssa.Construct.run_exn f in
      let out = Core.Coalesce.run_exn ssa in
      Ir.Validate.run out = []
      && outcomes_equal (Interp.run ~args:run_args f) (Interp.run ~args:run_args out))

let prop_options_preserve_semantics =
  QCheck.Test.make ~count:40 ~name:"ablation options stay correct"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let ssa = Ssa.Construct.run_exn f in
      let reference = Interp.run ~args:run_args f in
      List.for_all
        (fun options ->
          let out = Core.Coalesce.run_exn ~options ssa in
          outcomes_equal reference (Interp.run ~args:run_args out))
        [
          { Core.Coalesce.use_filters = false; victim_heuristic = true };
          { Core.Coalesce.use_filters = true; victim_heuristic = false };
          { Core.Coalesce.use_filters = false; victim_heuristic = false };
        ])

let prop_all_prunings_coalesce_correctly =
  QCheck.Test.make ~count:40 ~name:"coalescer correct on all SSA flavours"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let reference = Interp.run ~args:run_args f in
      List.for_all
        (fun pruning ->
          let ssa = Ssa.Construct.run_exn ~pruning f in
          let out = Core.Coalesce.run_exn ssa in
          outcomes_equal reference (Interp.run ~args:run_args out))
        [ Ssa.Construct.Pruned; Ssa.Construct.Semi_pruned; Ssa.Construct.Minimal ])

let test_stats_accounting () =
  let e = Workloads.Suite.find_exn "parmovx" in
  let ssa = Ssa.Construct.run_exn e.func in
  let out, stats = Core.Coalesce.run ssa in
  checki "copies_inserted matches the code" (Ir.count_copies out)
    (stats.copies_inserted + Ir.count_copies ssa);
  checkb "classes found" true (stats.classes > 0);
  checkb "members at least two per class" true (stats.class_members >= 2 * stats.classes);
  checkb "memory accounted" true (stats.aux_memory_bytes > 0)

let test_rotation_cycle_gets_temp () =
  (* A 3-rotation around a loop forces a φ-cycle; if the names coalesce
     into distinct classes connected by a cyclic parallel copy, the
     sequentializer must break it with a temp — either way the semantics
     hold. *)
  let src =
    {|
    func rot(n) {
      x = 1; y = 2; z = 3;
      i = 0;
      while (i < n) {
        t = x;
        x = y;
        y = z;
        z = t;
        i = i + 1;
      }
      return x * 100 + y * 10 + z;
    }
    |}
  in
  let f = Frontend.Lower.compile_one src in
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  List.iter
    (fun n ->
      assert_equiv ~args:[ Ir.Int n ] (Printf.sprintf "rot n=%d" n) f out)
    [ 0; 1; 2; 3; 7 ]

(* Renaming shares what it leaves alone: every SSA instruction that the
   coalescer does not rename is, physically, an instruction of the output
   (so a cached report holds it once), and so is every block body that
   neither renaming nor copy insertion changes. *)
let test_output_shares_ssa () =
  let kept = ref 0 and bodies = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let r = Driver.Pipeline.compile_passes new_pipeline e.func in
      let ssa =
        (List.find (fun (s : Driver.Pipeline.stage) -> s.name = "ssa") r.stages)
          .func
      in
      Array.iter
        (fun (b : Ir.block) ->
          let out = (Ir.block r.output b.label).body in
          List.iter
            (fun i ->
              if List.mem i out then begin
                incr kept;
                checkb
                  (Printf.sprintf "%s b%d: unrenamed instruction shared" e.name
                     b.label)
                  true
                  (List.memq i out)
              end)
            b.body;
          if out = b.body && out <> [] then begin
            incr bodies;
            checkb
              (Printf.sprintf "%s b%d: unchanged body shared" e.name b.label)
              true (out == b.body)
          end)
        ssa.blocks)
    (Lazy.force kernels @ Workloads.Suite.large ());
  checkb "some instructions are kept" true (!kept > 0);
  checkb "some bodies are kept" true (!bodies > 0)

let suite =
  [
    Alcotest.test_case "virtual swap (figures 3-4)" `Quick test_virtual_swap;
    Alcotest.test_case "variable swap" `Quick test_swap_variables;
    Alcotest.test_case "loop counter coalesces to zero copies" `Quick
      test_loop_counter_coalesces;
    Alcotest.test_case "kernels: valid + equivalent" `Slow
      test_kernels_all_pipelines_equivalent;
    Alcotest.test_case "never worse than standard" `Slow
      test_never_worse_than_standard;
    Alcotest.test_case "kernels: classes interference-free" `Slow
      test_classes_non_interfering_kernels;
    QCheck_alcotest.to_alcotest prop_classes_non_interfering;
    QCheck_alcotest.to_alcotest prop_semantics_preserved;
    QCheck_alcotest.to_alcotest prop_options_preserve_semantics;
    QCheck_alcotest.to_alcotest prop_all_prunings_coalesce_correctly;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "rotation cycle" `Quick test_rotation_cycle_gets_temp;
    Alcotest.test_case "output shares unrenamed SSA instructions" `Quick
      test_output_shares_ssa;
  ]
