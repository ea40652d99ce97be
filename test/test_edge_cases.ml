(* Corner cases across the stack: degenerate CFGs, terminator liveness,
   φ-free inputs, branch arms sharing a target, empty functions. *)

open Helpers

let test_phi_free_coalesce_is_identity () =
  let f = straight_line () in
  let out, stats = Core.Coalesce.run f in
  checki "no classes" 0 stats.classes;
  checki "no copies inserted" 0 stats.copies_inserted;
  checki "same instruction count" (Ir.count_instrs f) (Ir.count_instrs out);
  assert_equiv ~args:[ Ir.Int 3 ] "identity" f out

let test_single_block_function () =
  let f = Ir.Parse.func_of_string "func f() {\nb0:\n  ret 42\n}" in
  checkb "valid" true (Ir.Validate.run f = []);
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  checkb "ret 42" true ((Interp.run ~args:[] out).return_value = Some (Ir.Int 42))

let test_branch_both_arms_same_target () =
  let f =
    Ir.Parse.func_of_string
      {|
func f(p) {  # entry b0
b0:
  br p, b1, b1
b1:
  x := phi [b0: p]
  ret x
}
|}
  in
  checkb "valid (deduped preds)" true (Ir.Validate.run f = []);
  let cfg = Ir.Cfg.of_func f in
  check Alcotest.(list int) "single pred" [ 0 ] (Ir.Cfg.preds_list cfg 1);
  checki "not critical" 0 (Ir.Edge_split.count_critical f);
  let out = Core.Coalesce.run_exn f in
  checkb "p flows through" true
    ((Interp.run ~args:[ Ir.Int 7 ] out).return_value = Some (Ir.Int 7))

let test_terminator_keeps_value_alive () =
  (* The branch condition is a use at the very end of the block: the local
     interference walk must see it. x := ...; y := ...; br x — x is live
     just after y's definition. *)
  let f =
    Ir.Parse.func_of_string
      {|
func f(p) {  # entry b0
b0:
  x := add p, 1
  y := add p, 2
  br x, b1, b2
b1:
  ret y
b2:
  ret x
}
|}
  in
  let cfg = Ir.Cfg.of_func f in
  let live = Analysis.Liveness.compute f cfg in
  let sites = Core.Interference.def_sites f in
  let x = 1 and y = 2 in
  checkb "x live just after y's def" true
    (Core.Interference.live_just_after f live ~reg:x
       ~at:(match sites.(y) with Some s -> s | None -> assert false));
  let dom = Analysis.Dominance.compute f cfg in
  checkb "precise agrees" true (Core.Interference.precise f dom live sites x y)

let test_live_just_after_out_of_range () =
  (* A definition point outside its block's body is a caller error: it
     must raise, not loop or answer. *)
  let f =
    Ir.Parse.func_of_string
      {|
func f(p) {  # entry b0
b0:
  x := add p, 1
  y := add p, 2
  ret y
}
|}
  in
  let live = Analysis.Liveness.compute f (Ir.Cfg.of_func f) in
  List.iter
    (fun index ->
      let raised =
        try
          ignore
            (Core.Interference.live_just_after f live ~reg:1
               ~at:Core.Interference.{ block = 0; index });
          false
        with Invalid_argument _ -> true
      in
      checkb (Printf.sprintf "index %d raises" index) true raised)
    [ -2; 2; 5 ];
  Alcotest.check_raises "in a batch with a valid query"
    (Invalid_argument "Interference.live_just_after: index 7 outside block 0")
    (fun () ->
      ignore
        (Core.Interference.live_just_after_all f live
           [| (1, Core.Interference.{ block = 0; index = 0 });
              (1, Core.Interference.{ block = 0; index = 7 }) |]))

let test_return_none_function () =
  let f = Frontend.Lower.compile_one "func f(n) { a[0] = n; }" in
  let o = Interp.run ~args:[ Ir.Int 5 ] f in
  checkb "no return value" true (o.return_value = None);
  checkb "store happened" true
    (List.exists (fun (name, a) -> name = "a" && a.(0) = Ir.Int 5) o.arrays)

let test_deep_loop_nest () =
  (* Four levels of nesting: dominator depth, loop depth and the coalescer
     all have to cope. *)
  let f =
    Frontend.Lower.compile_one
      {|
      func deep(n) {
        s = 0;
        i = 0;
        while (i < 2) {
          j = 0;
          while (j < 2) {
            k = 0;
            while (k < 2) {
              l = 0;
              while (l < n) {
                s = s + i + j + k + l;
                l = l + 1;
              }
              k = k + 1;
            }
            j = j + 1;
          }
          i = i + 1;
        }
        return s;
      }
      |}
  in
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let loops = Analysis.Loops.compute cfg dom in
  let maxd =
    List.fold_left
      (fun acc l -> max acc (Analysis.Loops.depth loops l))
      0
      (List.init (Ir.num_blocks f) Fun.id)
  in
  checki "depth four" 4 maxd;
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  (* The loop counters coalesce completely: only the four constant
     initializations (constant φ arguments) plus s's remain. *)
  checkb "few copies" true (Ir.count_copies out <= 6);
  assert_equiv ~args:[ Ir.Int 3 ] "deep nest" f out

let test_unreachable_code_through_pipeline () =
  let f =
    Ir.Parse.func_of_string
      {|
func f(p) {  # entry b0
b0:
  ret p
b1:
  x := add p, 1
  jump b0
}
|}
  in
  checkb "valid with unreachable block" true (Ir.Validate.run f = []);
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  checkb "runs" true ((Interp.run ~args:[ Ir.Int 1 ] out).return_value = Some (Ir.Int 1))

let test_param_only_identity () =
  let f = Ir.Parse.func_of_string "func id(x) {\nb0:\n  ret x\n}" in
  let ssa = Ssa.Construct.run_exn f in
  let out = Core.Coalesce.run_exn ssa in
  checkb "identity" true
    ((Interp.run ~args:[ Ir.Float 2.5 ] out).return_value = Some (Ir.Float 2.5))

let test_regalloc_k2_on_tiny () =
  (* k=2 on a function needing three simultaneously-live values: must
     spill, not loop. *)
  let f =
    Frontend.Lower.compile_one
      "func f(p) { a = p + 1; b = p + 2; c = p + 3; return a * b + c; }"
  in
  let c = Core.Coalesce.run_exn (Ssa.Construct.run_exn f) in
  let r =
    Regalloc.run ~options:{ Regalloc.default_options with registers = 2 } c
  in
  checkb "spilled" true (r.stats.spilled_ranges > 0);
  checkb "two colors" true (r.stats.colors_used <= 2);
  let a = Interp.run ~args:[ Ir.Int 5 ] f in
  let b = Interp.run ~args:[ Ir.Int 5 ] r.func in
  checkb "semantics" true (a.return_value = b.return_value)

let test_briggs_no_copies_single_round () =
  (* Copy-free input: the build/coalesce loop must stop after one round. *)
  let f = straight_line () in
  let _, stats = Baseline.Ig_coalesce.run ~variant:Baseline.Ig_coalesce.Briggs f in
  checki "one round" 1 stats.rounds;
  checki "nothing coalesced" 0 stats.coalesced

let suite =
  [
    Alcotest.test_case "phi-free coalesce is identity" `Quick
      test_phi_free_coalesce_is_identity;
    Alcotest.test_case "single-block function" `Quick test_single_block_function;
    Alcotest.test_case "branch arms share target" `Quick
      test_branch_both_arms_same_target;
    Alcotest.test_case "terminator uses count for liveness" `Quick
      test_terminator_keeps_value_alive;
    Alcotest.test_case "live_just_after rejects a point outside the block"
      `Quick test_live_just_after_out_of_range;
    Alcotest.test_case "void function" `Quick test_return_none_function;
    Alcotest.test_case "four-deep loop nest" `Quick test_deep_loop_nest;
    Alcotest.test_case "unreachable code" `Quick test_unreachable_code_through_pipeline;
    Alcotest.test_case "parameter identity" `Quick test_param_only_identity;
    Alcotest.test_case "regalloc with k=2" `Quick test_regalloc_k2_on_tiny;
    Alcotest.test_case "briggs single round on copy-free input" `Quick
      test_briggs_no_copies_single_round;
  ]
