(* Tests for the mini-language lexer, parser and lowering. *)

open Helpers

let parse_one = Frontend.Parser.func

let test_lexer () =
  let toks = Frontend.Lexer.tokenize "func f(x) { return x + 1; } # comment" in
  checki "token count (incl. EOF)" 13 (List.length toks);
  match toks with
  | (Frontend.Token.KW_FUNC, 1) :: (IDENT "f", 1) :: _ -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_literals () =
  let t s =
    match Frontend.Lexer.tokenize s with (tok, _) :: _ -> tok | [] -> assert false
  in
  checkb "int" true (t "42" = Frontend.Token.INT 42);
  checkb "float" true (t "3.5" = Frontend.Token.FLOAT 3.5);
  checkb "float exp" true (t "1.5e2" = Frontend.Token.FLOAT 150.0);
  checkb "le" true (t "<=" = Frontend.Token.LE);
  checkb "ne" true (t "!=" = Frontend.Token.NE);
  checkb "comment skipped" true (t "// hi\n7" = Frontend.Token.INT 7)

let test_lexer_error () =
  checkb "bad char raises" true
    (try
       ignore (Frontend.Lexer.tokenize "func @");
       false
     with Frontend.Lexer.Error (_, 1) -> true);
  checkb "out-of-range integer raises" true
    (try
       ignore (Frontend.Lexer.tokenize "return 99999999999999999999;");
       false
     with Frontend.Lexer.Error (_, 1) -> true)

let test_parser_precedence () =
  let f = parse_one "func f(a, b) { x = a + b * 2; return x; }" in
  match f.body with
  | [ Assign ("x", Binary (Add, Var "a", Binary (Mul, Var "b", Int 2))); _ ] -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parser_comparison_and_logic () =
  let f = parse_one "func f(a) { return a < 3 && a > 0 || a == 9; }" in
  match f.body with
  | [ Return (Some (Binary (Or, Binary (And, _, _), Binary (Eq, _, _)))) ] -> ()
  | _ -> Alcotest.fail "logic precedence wrong"

let test_parser_else_if () =
  let f =
    parse_one
      "func f(a) { if (a > 0) { x = 1; } else if (a < 0) { x = 2; } else { x = 3; } return x; }"
  in
  match f.body with
  | [ If (_, _, [ If (_, _, [ Assign ("x", Int 3) ]) ]); _ ] -> ()
  | _ -> Alcotest.fail "else-if chain wrong"

let test_parser_for_desugar () =
  let f = parse_one "func f(n) { s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }" in
  match f.body with
  | [ Assign ("s", _); Assign ("i", Int 0); While (_, body); Return _ ] ->
    (* step appended to body *)
    (match List.rev body with
    | Assign ("i", Binary (Add, Var "i", Int 1)) :: _ -> ()
    | _ -> Alcotest.fail "step not appended")
  | _ -> Alcotest.fail "for not desugared"

let test_parser_errors () =
  let fails s =
    try
      ignore (Frontend.Parser.program s);
      false
    with Frontend.Parser.Error _ -> true
  in
  checkb "missing semicolon" true (fails "func f() { x = 1 }");
  checkb "missing paren" true (fails "func f( { return 0; }");
  checkb "bad statement" true (fails "func f() { 3 = x; }");
  checkb "unclosed block" true (fails "func f() { x = 1;");
  checkb "garbage after expr" true (fails "func f() { x = 1 2; }")

let test_parser_multiple_functions () =
  let fs = Frontend.Parser.program "func a() { return 1; } func b() { return 2; }" in
  checki "two functions" 2 (List.length fs)

let test_lowering_strictness () =
  (* x is read before any assignment on the else path: the lowering must
     zero-initialize it (paper's strictness trick), and only it. *)
  let f =
    Frontend.Lower.lower
      (parse_one "func f(p) { if (p > 0) { x = 5; } return x; }")
  in
  let func, stats = f in
  checki "one strictness init" 1 stats.strictness_inits;
  checkb "valid and strict" true (Ir.Validate.run func = []);
  (* And a fully-initialized program needs none. *)
  let _, stats2 =
    Frontend.Lower.lower (parse_one "func g(p) { x = p; return x; }")
  in
  checki "no inits needed" 0 stats2.strictness_inits

let test_lowering_executes () =
  let f = Frontend.Lower.compile_one
      {|
      func fact(n) {
        r = 1;
        i = 2;
        while (i <= n) {
          r = r * i;
          i = i + 1;
        }
        return r;
      }
      |}
  in
  let run n =
    match (Interp.run ~args:[ Ir.Int n ] f).return_value with
    | Some (Ir.Int v) -> v
    | _ -> Alcotest.fail "expected int"
  in
  checki "0! = 1" 1 (run 0);
  checki "5! = 120" 120 (run 5);
  checki "7! = 5040" 5040 (run 7)

let test_lowering_arrays_and_floats () =
  let f = Frontend.Lower.compile_one
      {|
      func mix(n) {
        a[0] = 1.5;
        a[1] = 2;
        x = float(a[0]) + float(a[1]);
        return int(x * 2.0);
      }
      |}
  in
  match (Interp.run ~args:[ Ir.Int 0 ] f).return_value with
  | Some (Ir.Int 7) -> ()
  | Some v -> Alcotest.failf "got %s" (Ir.Printer.value_to_string v)
  | None -> Alcotest.fail "no return value"

let test_source_copies_survive () =
  (* Source-level variable copies become Copy instructions — the raw
     material of the whole study. *)
  let f = Frontend.Lower.compile_one "func f(a) { x = a; y = x; return y; }" in
  checki "two copies" 2 (Ir.count_copies f)

(* Property: every generated program lowers to valid strict IR and runs. *)
let prop_generator_programs_valid =
  QCheck.Test.make ~count:100 ~name:"generated programs lower + validate + run"
    QCheck.(pair (int_bound 100_000) (int_range 5 80))
    (fun (seed, size) ->
      let f = random_program seed size in
      Ir.Validate.run f = []
      &&
      match Interp.run ~args:run_args f with
      | _ -> true)

(* Property: every mutation of a printed program is refused by the
   parser and the file loader with their typed errors, or lowers to
   functions the pipeline's door compiles or refuses as invalid input; no
   other exception escapes either reader. *)
let prop_source_mutations =
  let path = Filename.temp_file "repro-mutated" ".mini" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  QCheck.Test.make ~count:400
    ~name:"source: mutated text is a program or a typed error, at parser and loader"
    QCheck.(
      pair
        (pair (int_bound 10_000) (int_range 5 30))
        (make (Gen.list_size (Gen.int_range 1 4) mutation_gen)))
    (fun ((seed, size), muts) ->
      let base =
        Frontend.Ast.func_to_source
          (Workloads.Generator.generate { Workloads.Generator.default with seed; size })
      in
      let text = List.fold_left mutate base muts in
      let compiles (f : Ir.func) =
        match Driver.Pipeline.compile_passes new_pipeline f with
        | _ -> true
        | exception Ir.Validate.Invalid _ -> true
      in
      let parsed =
        match Frontend.Lower.compile text with
        | fs -> List.for_all compiles fs
        | exception Frontend.Parser.Error _ -> true
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let loaded =
        match Frontend.Load.file path with
        | fs -> fs <> []
        | exception Frontend.Load.Error _ -> true
      in
      parsed && loaded)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer;
    Alcotest.test_case "lexer literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer errors" `Quick test_lexer_error;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser logic operators" `Quick
      test_parser_comparison_and_logic;
    Alcotest.test_case "parser else-if" `Quick test_parser_else_if;
    Alcotest.test_case "parser for-desugaring" `Quick test_parser_for_desugar;
    Alcotest.test_case "parser error reporting" `Quick test_parser_errors;
    Alcotest.test_case "parser multiple functions" `Quick
      test_parser_multiple_functions;
    Alcotest.test_case "lowering strictness inits" `Quick test_lowering_strictness;
    Alcotest.test_case "lowering executes (factorial)" `Quick test_lowering_executes;
    Alcotest.test_case "lowering arrays and casts" `Quick
      test_lowering_arrays_and_floats;
    Alcotest.test_case "source copies survive" `Quick test_source_copies_survive;
    QCheck_alcotest.to_alcotest prop_generator_programs_valid;
    QCheck_alcotest.to_alcotest prop_source_mutations;
  ]
