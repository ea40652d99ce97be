(* Golden validator diagnostics: one hand-built malformed function per error
   kind of Ir.Validate.structure, Ir.Validate.strictness and
   Ssa.Ssa_validate, with the exact rendered `where: what` lines. These are
   the lines the CLI prints before exiting 2 or 3, so any change to a
   location or a message shows up here. *)

open Helpers

let blk ?(phis = []) ?(body = []) label term = { Ir.label; phis; body; term }

let fn ?(params = []) ?(entry = 0) ?(hints = []) ~nregs name blocks =
  {
    Ir.name;
    params;
    entry;
    blocks = Array.of_list blocks;
    nregs;
    hints =
      List.fold_left (fun m (r, s) -> Support.Imap.add r s m) Support.Imap.empty
        hints;
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
      fn ~nregs:1 ~hints:[ (0, "x") ] "loopy"
        [
          blk 0 ~phis:[ { dst = 0; args = [ (1, Const (Int 0)) ] } ] (Jump 1);
          blk 1 (Jump 0);
        ],
      [ "loopy: entry block b0 has predecessors";
        "loopy: entry block b0 has phi-nodes" ] );
    ( "duplicate phi labels",
      fn ~nregs:2 ~hints:[ (1, "x") ] "dup"
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
      fn ~params:[ 0 ] ~nregs:3 ~hints:[ (0, "p"); (1, "x") ] "use"
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
      fn ~params:[ 0 ] ~nregs:3 ~hints:[ (1, "y"); (2, "z") ] "phiarg"
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
      fn ~params:[ 0 ] ~nregs:2 ~hints:[ (0, "p"); (1, "v") ] "multi"
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
      fn ~params:[ 0 ] ~nregs:3 ~hints:[ (1, "a") ] "nodom"
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

let suite =
  [
    Alcotest.test_case "structure messages" `Quick test_structure;
    Alcotest.test_case "strictness messages" `Quick test_strictness;
    Alcotest.test_case "check_exn rendering" `Quick test_check_exn;
    Alcotest.test_case "ssa messages" `Quick test_ssa;
  ]
