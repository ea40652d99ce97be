(* Quickstart: the five-minute tour of the public API.

   We write a small function in the mini language, convert it to pruned SSA
   with copy folding, run the paper's coalescer, and show that the φ-related
   copies are gone while the program still computes the same value.

     dune exec examples/quickstart.exe *)

let source =
  {|
  # Sum of squares with a running maximum: two loop-carried variables.
  func sumsq(n) {
    s = 0;
    m = 0;
    i = 0;
    while (i < n) {
      sq = i * i;
      s = s + sq;
      if (sq > m) {
        m = sq;
      }
      i = i + 1;
    }
    return s + m;
  }
  |}

let banner title = Printf.printf "\n=== %s ===\n%!" title

let () =
  (* 1. Front end: parse and lower to the CFG IR. Source-level assignments
     become Copy instructions; the lowering also guarantees strictness. *)
  let f = Frontend.Lower.compile_one source in
  Ir.Validate.check_exn f;
  banner "input CFG";
  print_endline (Ir.Printer.func_to_string f);

  (* 2. SSA construction (pruned, copies folded): every copy disappears
     into the φ-nodes. *)
  let ssa = Ssa.Construct.run_exn f in
  Ssa.Ssa_validate.check_exn ssa;
  banner "pruned SSA, copies folded";
  print_endline (Ir.Printer.func_to_string ssa);

  (* 3. The paper's algorithm: coalesce while leaving SSA. *)
  let out, stats = Core.Coalesce.run ssa in
  Ir.Validate.check_exn out;
  banner "after the graph-free coalescer";
  print_endline (Ir.Printer.func_to_string out);
  Printf.printf
    "\ncongruence classes: %d (with %d members); copies inserted: %d\n"
    stats.classes stats.class_members stats.copies_inserted;

  (* 4. Compare against naive φ-instantiation and verify semantics. *)
  let naive = Ssa.Destruct_naive.run_exn (Ir.Edge_split.run ssa) in
  Printf.printf "static copies: naive instantiation = %d, coalesced = %d\n"
    (Ir.count_copies naive) (Ir.count_copies out);
  let args = [ Ir.Int 10 ] in
  let before = Interp.run ~args f in
  let after = Interp.run ~args out in
  Printf.printf "semantics preserved: %b (both return %s)\n"
    (Interp.equivalent before after)
    (match after.return_value with
    | Some v -> Ir.Printer.value_to_string v
    | None -> "nothing");
  Printf.printf "dynamic copies executed: naive = %d, coalesced = %d\n"
    (Interp.run ~args naive).stats.copies_executed
    after.stats.copies_executed;

  (* 5. Or drive the whole backend through one pipeline spec, the same
     string `repro-cli opt --passes` takes. *)
  banner "the same via Driver.Pipeline (with simplify + dce + regalloc)";
  let pipeline =
    Pass.Spec.parse_exn "construct:pruned,simplify,dce,coalesce,regalloc:4"
  in
  let report = Driver.Pipeline.compile_passes pipeline f in
  Format.printf "%a@." Driver.Pipeline.pp_report report;
  Printf.printf "final register count: %d\n" report.output.Ir.nregs
