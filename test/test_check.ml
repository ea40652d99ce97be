(* Tests for lib/check: translation validation (equiv), the interference
   audit and the repro shrinker. Each checker is exercised positively on
   the real pipeline and negatively on a deliberately broken SSA
   destruction, so a regression in the checkers themselves (reporting
   nothing, or reporting everything) fails here. *)

open Helpers

(* A deliberately broken φ-elimination: φ arguments become sequential
   copies at the end of each predecessor, in φ order, with no
   parallel-copy analysis. Correct on independent copies and chains,
   wrong whenever the φs at a join permute live values (the swap and
   virtual-swap problems of Sections 3.5–3.6) — exactly the class of bug
   the checkers exist to catch. *)
let broken_destruct (f : Ir.func) =
  let f = Ir.Edge_split.run f in
  let waiting : Ir.instr list array = Array.make (Ir.num_blocks f) [] in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              waiting.(pl) <-
                Ir.Copy { dst = p.dst; src = op } :: waiting.(pl))
            p.args)
        b.phis)
    f.blocks;
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        { b with Ir.phis = []; body = b.body @ List.rev waiting.(b.label) })
      f.blocks
  in
  { f with Ir.blocks }

(* A loop that swaps two variables each iteration. Copy folding during SSA
   construction folds [t = x; x = y; y = t] away, leaving the swap latent
   in the header φs — the sequential-copy stub then miscompiles it. *)
let swaploop_src =
  "func swaploop(n, a) { x = 1; y = 2; i = 0; while (i < n) { t = x; x = y; \
   y = t; i = i + 1; } return x - y; }"

let swaploop_ast () = Frontend.Parser.func swaploop_src

let broken_compile (ast : Frontend.Ast.func) =
  let input, _ = Frontend.Lower.lower ast in
  (input, broken_destruct (Ssa.Construct.run_exn input))

(* ------------------------------------------------------------------ *)
(* equiv                                                              *)
(* ------------------------------------------------------------------ *)

let test_battery () =
  checkb "deterministic" true (Check.battery 3 = Check.battery 3);
  checki "default vector count" 8 (List.length (Check.battery 3));
  checki "vectors honoured" 4 (List.length (Check.battery ~vectors:4 2));
  checkb "first vector all zero" true
    (List.for_all (( = ) (Ir.Int 0)) (List.hd (Check.battery 5)));
  List.iter
    (fun v -> checki "arity honoured" 6 (List.length v))
    (Check.battery 6)

let test_equiv_reflexive () =
  List.iter
    (fun f ->
      checkb (f.Ir.name ^ " ≡ itself") true
        (Check.equiv ~reference:f f = Ok ()))
    [ straight_line (); diamond (); counting_loop () ]

let test_equiv_pipeline_routes () =
  (* Every conversion route, translation-validated end to end through the
     pipeline hook. *)
  let input = random_program 11 40 in
  List.iter
    (fun spec ->
      let report =
        Driver.Pipeline.compile_passes ~check:true (Pass.Spec.parse_exn spec)
          input
      in
      checkb (spec ^ " equiv holds") true
        (Check.equiv ~reference:input report.Driver.Pipeline.output = Ok ()))
    [
      "construct:pruned,standard";
      "construct:pruned,coalesce";
      "construct:pruned,briggs-star";
      "construct:pruned,sreedhar-i";
    ]

let test_equiv_catches_broken_swap () =
  let input, broken = broken_compile (swaploop_ast ()) in
  (match Check.equiv ~reference:input broken with
  | Ok () -> Alcotest.fail "equiv missed the sequential-copy swap bug"
  | Error m ->
    (* The report must render and carry the separating arguments. *)
    let s = Format.asprintf "%a" Check.pp_mismatch m in
    checkb "mismatch renders" true (String.length s > 0);
    checkb "has separating args" true (m.Check.args <> []));
  checkb "equiv_exn raises Failed" true
    (try
       Check.equiv_exn ~reference:input broken;
       false
     with Check.Failed _ -> true)

(* A conversion that turns a terminating loop into an endless one: the
   candidate exceeds the step limit on every vector where the reference
   runs the loop and returns. That is a mismatch; only a reference that
   exceeds the limit makes a vector say nothing. *)
let test_equiv_candidate_hangs () =
  let counts =
    Frontend.Lower.compile_one
      "func count(n) { i = 0; while (i < n) { i = i + 1; } return i; }"
  in
  let hangs =
    Frontend.Lower.compile_one
      "func count(n) { i = 0; while (i < n) { i = i + 0; } return i; }"
  in
  (match Check.equiv ~step_limit:10_000 ~reference:counts hangs with
  | Ok () -> Alcotest.fail "equiv passed a candidate that never returns"
  | Error m ->
    checkb "candidate hit the step limit" true
      (m.Check.candidate = Check.Faulted Interp.Step_limit_exceeded));
  checkb "a reference over the limit skips the vector" true
    (Check.equiv ~step_limit:10_000 ~reference:hangs counts = Ok ())

let test_equiv_arity_mismatch () =
  (* One parameter vs. the generator's (n, a) pair. *)
  let f = straight_line () and g = random_program 1 10 in
  checkb "arity mismatch rejected" true
    (try
       ignore (Check.equiv ~reference:f g);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* interference_audit                                                 *)
(* ------------------------------------------------------------------ *)

let test_audit_virtual_swap () =
  checkb "virtual swap classes are interference-free" true
    (Check.interference_audit (virtual_swap_ssa ()) = Ok ())

let test_audit_generated () =
  List.iter
    (fun seed ->
      let ssa = Ssa.Construct.run_exn (random_program seed 35) in
      checkb (Printf.sprintf "seed %d audit" seed) true
        (Check.interference_audit ssa = Ok ()))
    [ 1; 2; 3 ]

let test_audit_injected_bad_class () =
  (* In the Figure-3 virtual swap, x2 (r3) and y2 (r4) are simultaneously
     live at the join — merging them would be wrong, and the audit must say
     so when handed that class explicitly. *)
  match Check.interference_audit ~classes:[ [ 3; 4 ] ] (virtual_swap_ssa ()) with
  | Ok () -> Alcotest.fail "audit accepted an interfering class"
  | Error i ->
    checkb "pair comes from the injected class" true
      (List.mem i.Check.u i.Check.cls && List.mem i.Check.v i.Check.cls);
    let s = Format.asprintf "%a" Check.pp_interference i in
    checkb "violation names both oracles' registers" true
      (contains s "r3" && contains s "r4")

(* ------------------------------------------------------------------ *)
(* shrink                                                             *)
(* ------------------------------------------------------------------ *)

let test_shrink_broken_swap () =
  (* The fuzz workflow on the seeded failure: the keep predicate re-lowers
     the candidate and asks whether the broken destruction still
     miscompiles it. *)
  let keep ast =
    let input, broken = broken_compile ast in
    match Check.equiv ~reference:input broken with
    | Ok () -> false
    | Error _ -> true
  in
  let original = swaploop_ast () in
  checkb "keep holds of the seed" true (keep original);
  let shrunk = Check.shrink ~keep original in
  checkb "keep holds of the result" true (keep shrunk);
  checkb "strictly smaller" true
    (Frontend.Ast.count_stmts shrunk < Frontend.Ast.count_stmts original);
  checkb "small repro" true (Frontend.Ast.count_stmts shrunk <= 8);
  (* The repro must be saveable: its source re-parses to the same AST. *)
  let src = Frontend.Ast.func_to_source shrunk in
  checkb "repro re-parses" true (Frontend.Parser.func src = shrunk)

let test_shrink_keep_exceptions () =
  (* keep that always throws counts as false: the input comes back. *)
  let original = swaploop_ast () in
  let shrunk = Check.shrink ~keep:(fun _ -> failwith "boom") original in
  checkb "input survives a throwing keep" true (shrunk = original)

let test_shrink_max_rounds () =
  let keep ast =
    let input, broken = broken_compile ast in
    Check.equiv ~reference:input broken <> Ok ()
  in
  let original = swaploop_ast () in
  let one = Check.shrink ~max_rounds:1 ~keep original in
  checkb "one round commits at most one reduction" true
    (Frontend.Ast.count_stmts original - Frontend.Ast.count_stmts one <= 1
    || one <> original)

let test_pp_roundtrip () =
  (* The pretty-printer emits concrete syntax the parser accepts — on
     generator output, not just hand-written programs. *)
  List.iter
    (fun seed ->
      let ast =
        Workloads.Generator.generate
          { Workloads.Generator.default with seed; size = 30 }
      in
      let src = Frontend.Ast.func_to_source ast in
      checkb (Printf.sprintf "seed %d round-trips" seed) true
        (Frontend.Parser.func src = ast))
    [ 4; 9; 23 ]

let suite =
  [
    Alcotest.test_case "battery shape" `Quick test_battery;
    Alcotest.test_case "equiv reflexive" `Quick test_equiv_reflexive;
    Alcotest.test_case "equiv across pipeline routes" `Slow
      test_equiv_pipeline_routes;
    Alcotest.test_case "equiv catches broken swap" `Quick
      test_equiv_catches_broken_swap;
    Alcotest.test_case "equiv: candidate hangs where reference returns"
      `Quick test_equiv_candidate_hangs;
    Alcotest.test_case "equiv arity mismatch" `Quick test_equiv_arity_mismatch;
    Alcotest.test_case "audit: virtual swap" `Quick test_audit_virtual_swap;
    Alcotest.test_case "audit: generated programs" `Slow test_audit_generated;
    Alcotest.test_case "audit: injected bad class" `Quick
      test_audit_injected_bad_class;
    Alcotest.test_case "shrink broken-swap repro" `Quick
      test_shrink_broken_swap;
    Alcotest.test_case "shrink tolerates throwing keep" `Quick
      test_shrink_keep_exceptions;
    Alcotest.test_case "shrink max_rounds" `Quick test_shrink_max_rounds;
    Alcotest.test_case "printer/parser round-trip" `Quick test_pp_roundtrip;
  ]
