(* Tests for Ssa.Simplify.propagate: the standalone copy/constant-
   propagation pass ("Copy Propagation subsumes Constant Propagation"). *)

open Helpers

let first_func source =
  match Frontend.Lower.compile source with
  | f :: _ -> f
  | [] -> Alcotest.fail "no function lowered"

let test_deletes_every_copy () =
  let f = counting_loop () in
  let ssa = Ssa.Construct.run_exn ~fold_copies:false f in
  let before = Ir.count_copies ssa in
  checkb "unfolded SSA still has copies" true (before > 0);
  let g, s = Ssa.Simplify.propagate ssa in
  Ssa.Ssa_validate.check_exn g;
  checki "no copies survive" 0 (Ir.count_copies g);
  checki "stats count the deletions" before s.copies_propagated;
  assert_equiv ~args:[ Ir.Int 5 ] "copy-prop/loop" f g

let test_constant_propagation () =
  (* x = 7 is a copy from a constant; propagating it is exactly constant
     propagation, and the return must read the literal directly. *)
  let f = first_func "func k() { x = 7; y = x; return y; }" in
  let ssa = Ssa.Construct.run_exn ~fold_copies:false f in
  let g, s = Ssa.Simplify.propagate ssa in
  checkb "some constant was propagated" true (s.consts_propagated >= 1);
  checki "no copies survive" 0 (Ir.count_copies g);
  let out = Interp.run ~args:[] g in
  checkb "returns 7" true (out.return_value = Some (Ir.Int 7))

let test_phi_collapse () =
  (* Both arms assign the same source, so the join φ is trivial once the
     copies are propagated — the φ-as-copy half of the pass. *)
  let f =
    first_func
      "func t(p) { a = p + 1; if (p) { y = a; } else { y = a; } return y; }"
  in
  let ssa = Ssa.Construct.run_exn ~fold_copies:false f in
  let g, s = Ssa.Simplify.propagate ssa in
  Ssa.Ssa_validate.check_exn g;
  checkb "a phi collapsed" true (s.phis_collapsed >= 1);
  checkb "no phis survive" true
    (Array.for_all (fun (b : Ir.block) -> b.Ir.phis = []) g.Ir.blocks);
  assert_equiv ~args:[ Ir.Int 3 ] "copy-prop/phi" f g

let test_keeps_real_phis () =
  (* The diamond's two arms disagree (1 vs 2): that φ must survive. *)
  let f = diamond () in
  let ssa = Ssa.Construct.run_exn ~fold_copies:false f in
  let g, _ = Ssa.Simplify.propagate ssa in
  let phis =
    Array.fold_left (fun n (b : Ir.block) -> n + List.length b.Ir.phis) 0
      g.Ir.blocks
  in
  checki "the joining phi survives" 1 phis;
  assert_equiv ~args:[ Ir.Int 1 ] "copy-prop/diamond-t" f g;
  assert_equiv ~args:[ Ir.Int 0 ] "copy-prop/diamond-f" f g

let test_idempotent_after_folding () =
  (* Default SSA construction already folds copies, so a second
     propagation finds at most trivial φs — and running the pass twice is
     the same as running it once. *)
  let f = Workloads.Suite.(find_exn "saxpy").func in
  let ssa = Ssa.Construct.run_exn f in
  let g1, _ = Ssa.Simplify.propagate ssa in
  let g2, s2 = Ssa.Simplify.propagate g1 in
  checki "second run deletes nothing" 0 s2.copies_propagated;
  checki "second run collapses nothing" 0 s2.phis_collapsed;
  checkb "second run is identity" true
    (Ir.Printer.func_to_string g1 = Ir.Printer.func_to_string g2)

(* Random programs: the pass preserves semantics and SSA validity from
   every construction flavour. *)
let prop_semantics_preserving =
  QCheck.Test.make ~count:40 ~name:"copy-prop preserves semantics"
    QCheck.(pair (int_bound 10_000) (int_range 10 40))
    (fun (seed, size) ->
      let f = random_program seed size in
      let reference = Interp.run ~args:run_args f in
      List.for_all
        (fun (pruning, fold_copies) ->
          let ssa = Ssa.Construct.run_exn ~pruning ~fold_copies f in
          let g, _ = Ssa.Simplify.propagate ssa in
          Ssa.Ssa_validate.check_exn g;
          outcomes_equal reference
            (Interp.run ~args:run_args (Ssa.Destruct_naive.run_exn
                                          (Ir.Edge_split.run g))))
        [
          (Ssa.Construct.Pruned, true);
          (Ssa.Construct.Pruned, false);
          (Ssa.Construct.Minimal, false);
          (Ssa.Construct.Semi_pruned, true);
        ])

let suite =
  [
    Alcotest.test_case "deletes every copy" `Quick test_deletes_every_copy;
    Alcotest.test_case "constant propagation" `Quick test_constant_propagation;
    Alcotest.test_case "phi collapse" `Quick test_phi_collapse;
    Alcotest.test_case "keeps real phis" `Quick test_keeps_real_phis;
    Alcotest.test_case "idempotent after folding" `Quick
      test_idempotent_after_folding;
    QCheck_alcotest.to_alcotest prop_semantics_preserving;
  ]
