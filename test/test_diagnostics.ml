(* Golden validator diagnostics: one hand-built malformed function per error
   kind of Ir.Validate.structure, Ir.Validate.strictness and
   Ssa.Ssa_validate, with the exact rendered `where: what` lines, and one
   malformed text per Ir.Parse.Error kind with its exact message and line.
   These are the lines the CLI prints before exiting 2 or 3, so any change
   to a location or a message shows up here. *)

open Helpers

let blk ?(phis = []) ?(body = []) label term = { Ir.label; phis; body; term }

let fn ?(params = []) ?(entry = 0) ?(names = []) ~nregs name blocks =
  {
    Ir.name;
    params;
    entry;
    blocks = Array.of_list blocks;
    nregs;
    names = names_of_list names;
  }

let render errs =
  List.map (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e) errs

let lines = Alcotest.(list string)

let copy dst r = Ir.Copy { dst; src = Reg r }
let const dst k = Ir.Copy { dst; src = Const (Int k) }
let ret r = Ir.Return (Some (Reg r))

(* ---- Ir.Validate.structure ---------------------------------------- *)

let structure_cases =
  [
    ( "no blocks",
      fn ~nregs:0 "empty" [],
      [ "empty: function has no blocks"; "empty: entry label b0 out of range" ]
    );
    ( "entry out of range",
      fn ~entry:3 ~nregs:0 "far" [ blk 0 (Return None) ],
      [ "far: entry label b3 out of range" ] );
    ( "label field mismatch",
      fn ~nregs:0 "lbl" [ blk 0 (Jump 1); blk 7 (Return None) ],
      [ "lbl/b1: block label field is b7, expected b1" ] );
    ( "successor label out of range",
      fn ~nregs:1 "succ"
        [ blk 0 (Branch { cond = Const (Int 1); if_true = 1; if_false = 4 });
          blk 1 (Return None) ],
      [ "succ/b0: label b4 out of range" ] );
    ( "registers out of range",
      fn ~nregs:2 "regs"
        [
          blk 0 ~body:[ copy 0 5; const 9 1 ] (Jump 1);
          blk 1
            ~phis:[ { dst = 6; args = [ (0, Reg 8); (3, Reg 0) ] } ]
            (ret 7);
        ],
      [
        "regs/b0: register 5 out of range";
        "regs/b0: register 9 out of range";
        "regs/b1: register 7 out of range";
        "regs/b1: register 6 out of range";
        "regs/b1: register 8 out of range";
        "regs/b1: label b3 out of range";
      ] );
    ( "entry has predecessors and phis",
      fn ~nregs:1 ~names:[ (0, "x") ] "loopy"
        [
          blk 0 ~phis:[ { dst = 0; args = [ (1, Const (Int 0)) ] } ] (Jump 1);
          blk 1 (Jump 0);
        ],
      [ "loopy: entry block b0 has predecessors";
        "loopy: entry block b0 has phi-nodes" ] );
    ( "duplicate phi labels",
      fn ~nregs:2 ~names:[ (1, "x") ] "dup"
        [
          blk 0 (Jump 1);
          blk 1
            ~phis:[ { dst = 1; args = [ (0, Reg 0); (0, Reg 0) ] } ]
            (ret 1);
        ],
      [ "dup/b1: phi for x has duplicate argument labels" ] );
    ( "phi labels differ from predecessors",
      fn ~params:[ 0 ] ~nregs:2 "mism"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 (Jump 2);
          blk 2 ~phis:[ { dst = 1; args = [ (2, Reg 0) ] } ] (ret 1);
        ],
      [ "mism/b2: phi for r1 has argument labels [2], predecessors are [0;1]" ]
    );
    ( "phi misses a predecessor",
      fn ~params:[ 0 ] ~nregs:2 ~names:[ (1, "m") ] "miss"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 (Jump 2);
          blk 2 ~phis:[ { dst = 1; args = [ (1, Reg 0) ] } ] (ret 1);
        ],
      [ "miss/b2: phi for m has argument labels [1], predecessors are [0;1]" ] );
    ( "phi has a stray label",
      fn ~params:[ 0 ] ~nregs:2 "stray"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 (Jump 2);
          blk 2
            ~phis:[ { dst = 1; args = [ (0, Reg 0); (2, Reg 0); (1, Reg 0) ] } ]
            (ret 1);
        ],
      [
        "stray/b2: phi for r1 has argument labels [0;1;2], predecessors are \
         [0;1]";
      ] );
    ( "duplicate label and a missing predecessor",
      fn ~params:[ 0 ] ~nregs:3 "dupmiss"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 (Jump 2);
          blk 2
            ~phis:
              [
                { dst = 1; args = [ (0, Reg 0); (1, Reg 0) ] };
                { dst = 2; args = [ (0, Reg 0); (0, Const (Int 1)) ] };
              ]
            (ret 1);
        ],
      [
        "dupmiss/b2: phi for r2 has duplicate argument labels";
        "dupmiss/b2: phi for r2 has argument labels [0], predecessors are [0;1]";
      ] );
  ]

let test_structure () =
  List.iter
    (fun (name, f, expected) ->
      check lines name expected (render (Ir.Validate.structure f));
      check lines (name ^ " (run)") expected (render (Ir.Validate.run f));
      check lines (name ^ " (strictness)")
        [ f.Ir.name ^ ": skipping strictness: structure invalid" ]
        (render (Ir.Validate.strictness f)))
    structure_cases

(* ---- Ir.Validate.strictness --------------------------------------- *)

let strictness_cases =
  [
    ( "use before assignment",
      fn ~params:[ 0 ] ~nregs:3 ~names:[ (0, "p"); (1, "x") ] "use"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 ~body:[ const 1 1 ] (Jump 2);
          blk 2 ~body:[ copy 2 1 ] (ret 2);
        ],
      [ "use/b2: use of x before definite assignment" ] );
    ( "terminator use",
      fn ~nregs:2 "term" [ blk 0 ~body:[ const 0 1 ] (ret 1) ],
      [ "term/b0: terminator uses r1 before definite assignment" ] );
    ( "phi argument",
      fn ~params:[ 0 ] ~nregs:3 ~names:[ (1, "y"); (2, "z") ] "phiarg"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 ~body:[ const 1 1 ] (Jump 2);
          blk 2 ~phis:[ { dst = 2; args = [ (0, Reg 1); (1, Reg 1) ] } ] (ret 2);
        ],
      [ "phiarg/b0: phi argument y (for z in b2) not definitely assigned" ] );
    ( "several errors in walk order",
      fn ~nregs:4 "many"
        [
          blk 0 ~body:[ copy 0 3 ] (Jump 1);
          blk 1 ~body:[ copy 1 2; copy 2 0 ] (ret 3);
        ],
      [
        "many/b0: use of r3 before definite assignment";
        "many/b1: use of r2 before definite assignment";
        "many/b1: terminator uses r3 before definite assignment";
      ] );
    ( "unreachable blocks are not checked",
      fn ~nregs:2 "dead" [ blk 0 ~body:[ const 0 1 ] (ret 0); blk 1 (ret 1) ],
      [] );
  ]

let test_strictness () =
  List.iter
    (fun (name, f, expected) ->
      check lines name [] (render (Ir.Validate.structure f));
      check lines name expected (render (Ir.Validate.strictness f));
      check lines (name ^ " (run)") expected (render (Ir.Validate.run f)))
    strictness_cases

let test_check_exn () =
  let _, f, _ = List.hd strictness_cases in
  Alcotest.check_raises "check_exn message"
    (Failure
       "IR validation failed:\nuse/b2: use of x before definite assignment")
    (fun () -> Ir.Validate.check_exn f)

(* ---- Ssa.Ssa_validate --------------------------------------------- *)

let ssa_cases =
  [
    ( "structure errors pass through",
      fn ~nregs:0 "empty" [],
      [ "empty: function has no blocks"; "empty: entry label b0 out of range" ]
    );
    ( "multiple definitions",
      fn ~params:[ 0 ] ~nregs:2 ~names:[ (0, "p"); (1, "v") ] "multi"
        [
          blk 0 ~body:[ const 1 1; const 0 2 ] (Jump 1);
          blk 1 ~phis:[ { dst = 1; args = [ (0, Reg 0) ] } ] (ret 1);
        ],
      [
        "multi/b0: register p has multiple definitions";
        "multi/b1: register v has multiple definitions";
      ] );
    ( "use with no definition",
      fn ~nregs:2 "undef" [ blk 0 ~body:[ copy 0 1 ] (ret 0) ],
      [ "undef/b0: use of r1, which has no definition" ] );
    ( "use not dominated",
      fn ~params:[ 0 ] ~nregs:3 ~names:[ (1, "a") ] "nodom"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 ~body:[ const 1 1 ] (Jump 3);
          blk 2 ~body:[ copy 2 1 ] (Jump 3);
          blk 3 ~body:[ copy 2 0 ] (ret 1);
        ],
      [
        "nodom/b3: register r2 has multiple definitions";
        "nodom/b2: use of a not dominated by its definition in b1";
        "nodom/b3: use of a not dominated by its definition in b1";
      ] );
    ( "phi argument checked at the predecessor, reported at the phi",
      fn ~params:[ 0 ] ~nregs:3 "phiuse"
        [
          blk 0 (Branch { cond = Reg 0; if_true = 1; if_false = 2 });
          blk 1 ~body:[ const 1 1 ] (Jump 2);
          blk 2 ~phis:[ { dst = 2; args = [ (0, Reg 1); (1, Reg 1) ] } ] (ret 2);
        ],
      [ "phiuse/b2: use of r1 not dominated by its definition in b1" ] );
    ( "same-block use before definition",
      fn ~nregs:2 "order" [ blk 0 ~body:[ copy 0 1; const 1 3 ] (ret 0) ],
      [ "order/b0: use of r1 not dominated by its definition in b0" ] );
  ]

let test_ssa () =
  List.iter
    (fun (name, f, expected) ->
      check lines name expected (render (Ssa.Ssa_validate.run f)))
    ssa_cases;
  let _, f, _ = List.nth ssa_cases 2 in
  Alcotest.check_raises "check_exn message"
    (Failure "SSA validation failed:\nundef/b0: use of r1, which has no definition")
    (fun () -> Ssa.Ssa_validate.check_exn f)

(* ---- Ir.Parse ---------------------------------------------------- *)

let parse_cases =
  [
    ( "unexpected character",
      "func f() {\nb0:\n  x := 1 @ 2\n  ret\n}",
      ("unexpected character '@'", 3) );
    ( "expected a block label, found",
      "func f() {\nb0:\n  jump x\n}",
      ("expected a block label, found \"x\"", 3) );
    ( "bad literal",
      "func f() {\nb0:\n  x := 1.2.3\n  ret x\n}",
      ("bad literal \"1.2.3\"", 3) );
    ( "register collides with a mnemonic",
      "func f() {\nb0:\n  add := 1\n  ret\n}",
      ("register name \"add\" collides with a mnemonic", 3) );
    ( "register looks like a label",
      "func f() {\nb0:\n  b1 := neg 1\n  ret\n}",
      ("register name \"b1\" looks like a label", 3) );
    ( "malformed phi argument list",
      "func f() {\nb0:\n  x := phi [b0 1]\n  ret\n}",
      ("malformed phi argument list", 3) );
    ( "malformed instruction",
      "func f() {\nb0:\n  x := add 1\n  ret\n}",
      ("malformed instruction", 3) );
    ( "unexpected token",
      "func f() {\nb0:\n  x := 1\n}",
      ("unexpected token \"}\"", 4) );
    ( "garbage after '{'",
      "func f() { x\nb0:\n  ret\n}",
      ("garbage after '{'", 1) );
    ( "malformed parameter list",
      "\nfunc f(a, b\nb0:\n  ret\n}",
      ("malformed parameter list", 2) );
    ( "expected a function header",
      "fun f() {\nb0:\n  ret\n}",
      ("expected 'func NAME(...) {'", 1) );
    ( "unterminated block",
      "func f() {\nb0:\n  ret\nb1:\n  x := 1",
      ("unterminated block b1", 4) );
    ( "phi after ordinary instructions",
      "func f() {\nb0:\n  x := 1\n  y := phi [b0: x]\n  ret\n}",
      ("phi after ordinary instructions", 4) );
    ( "expected a block label",
      "func f() {\n  ret\n}",
      ("expected a block label", 2) );
    ("missing closing brace", "func f() {\nb0:\n  ret\n", ("missing closing '}'", 0));
    ( "no blocks",
      "# header\nfunc f() {\n}",
      ("function f has no blocks", 2) );
    ( "not exactly one function",
      "func f() {\nb0:\n  ret\n}\nfunc g() {\nb0:\n  ret\n}",
      ("expected one function, got 2", 0) );
    ("empty input", "", ("expected one function, got 0", 0));
    (* Several faults on one line: the one reported is pinned too. *)
    ( "branch: last label checked first",
      "func f() {\nb0:\n  br add, x, y\n}",
      ("expected a block label, found \"y\"", 3) );
    ( "copy: source checked before destination",
      "func f() {\nb0:\n  add := mul\n  ret\n}",
      ("register name \"mul\" collides with a mnemonic", 3) );
    ( "binop: right operand checked first",
      "func f() {\nb0:\n  x := add mul, neg\n  ret\n}",
      ("register name \"neg\" collides with a mnemonic", 3) );
    ( "phi: operand checked before its label",
      "func f() {\nb0:\n  x := phi [q: add]\n  ret\n}",
      ("register name \"add\" collides with a mnemonic", 3) );
  ]

let parse_outcome s =
  match Ir.Parse.func_of_string s with
  | _ -> None
  | exception Ir.Parse.Error (msg, line) -> Some (msg, line)

let test_parse () =
  List.iter
    (fun (name, src, expected) ->
      check
        Alcotest.(option (pair string int))
        name (Some expected) (parse_outcome src))
    parse_cases

(* Registers are numbered in order of first occurrence, reading each line's
   operands right to left and a phi's destination before its arguments;
   printing without names shows the numbering. *)
let test_parse_numbering () =
  let f =
    Ir.Parse.func_of_string
      "func f(a, b) {\nb0:\n  x := add y, z\n  w := neg v\n  m[i] := j\n\
      \  k := m[q]\n  br c, b1, b1\nb1:\n  t := phi [b0: u] [b1: s]\n\
      \  ret t\n}"
  in
  checki "nregs" 15 f.Ir.nregs;
  check Alcotest.string "numbering"
    "func f(r0, r1) {  # entry b0\nb0:\n  r4 := add r3, r2\n  r6 := neg r5\n\
    \  m[r8] := r7\n  r10 := m[r9]\n  br r11, b1, b1\nb1:\n\
    \  r12 := phi [b0: r13] [b1: r14]\n  ret r12\n}"
    (Ir.Printer.func_to_string { f with Ir.names = Ir.Names.empty });
  check Alcotest.string "name" "z" (Ir.reg_name f 2)

let suite =
  [
    Alcotest.test_case "structure messages" `Quick test_structure;
    Alcotest.test_case "strictness messages" `Quick test_strictness;
    Alcotest.test_case "check_exn rendering" `Quick test_check_exn;
    Alcotest.test_case "ssa messages" `Quick test_ssa;
    Alcotest.test_case "parse messages" `Quick test_parse;
    Alcotest.test_case "parse register numbering" `Quick test_parse_numbering;
  ]
