(* Tests for the IR library: builder, structural/strictness validation, CFG
   derivation, critical-edge splitting, printing. *)

open Helpers

let test_builder_and_validate () =
  let f = straight_line () in
  check Alcotest.(list string) "valid" []
    (List.map (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e) (Ir.Validate.run f));
  checki "blocks" 1 (Ir.num_blocks f);
  checki "nregs" 3 f.Ir.nregs;
  checki "copies" 0 (Ir.count_copies f)

let test_builder_unterminated () =
  let b = Ir.Builder.create "bad" in
  let _ = Ir.Builder.add_block b in
  Alcotest.check_raises "finish on unterminated block"
    (Failure "Builder: block 0 not terminated") (fun () ->
      ignore (Ir.Builder.finish b))

let test_builder_double_terminate () =
  let b = Ir.Builder.create "bad" in
  let l = Ir.Builder.add_block b in
  Ir.Builder.terminate b l (Return None);
  Alcotest.check_raises "double terminate"
    (Failure "Builder: block 0 already terminated") (fun () ->
      Ir.Builder.terminate b l (Return None))

let test_def_uses () =
  let i = Ir.Copy { dst = 3; src = Reg 5 } in
  check Alcotest.(option int) "copy def" (Some 3) (Ir.def i);
  check Alcotest.(list int) "copy uses" [ 5 ] (Ir.uses i);
  let s = Ir.Store { arr = "a"; idx = Reg 1; src = Reg 2 } in
  check Alcotest.(option int) "store def" None (Ir.def s);
  check Alcotest.(list int) "store uses" [ 1; 2 ] (Ir.uses s);
  let b = Ir.Binop { op = Add; dst = 0; l = Reg 1; r = Const (Int 2) } in
  check Alcotest.(list int) "binop uses" [ 1 ] (Ir.uses b);
  let renamed = Ir.map_instr_uses (fun r -> Ir.Reg (r + 10)) b in
  check Alcotest.(list int) "renamed uses" [ 11 ] (Ir.uses renamed);
  check Alcotest.(option int) "def untouched" (Some 0) (Ir.def renamed)

let test_strictness_violation () =
  (* x used in the join but only defined on one side of the diamond. *)
  let b = Ir.Builder.create "nonstrict" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let entry = Ir.Builder.add_block b in
  let then_ = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = then_; if_false = join });
  Ir.Builder.push b then_ (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.terminate b then_ (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "structure ok" true (Ir.Validate.structure f = []);
  checkb "strictness caught" true (Ir.Validate.strictness f <> [])

let test_structure_errors () =
  (* Phi argument labels must match predecessors. *)
  let b = Ir.Builder.create "badphi" in
  let p = Ir.Builder.add_param b in
  let x = Ir.Builder.fresh_reg b in
  let entry = Ir.Builder.add_block b in
  let next = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry (Jump next);
  Ir.Builder.push_phi b next { dst = x; args = [ (entry, Reg p); (entry, Reg p) ] };
  Ir.Builder.terminate b next (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  checkb "duplicate phi labels rejected" true (Ir.Validate.structure f <> [])

let test_cfg_orders () =
  let f = counting_loop () in
  let cfg = Ir.Cfg.of_func f in
  checki "edges" 4 (Ir.Cfg.num_edges cfg);
  check Alcotest.(list int) "preds of header" [ 0; 2 ] (Ir.Cfg.preds_list cfg 1);
  let rpo = Array.to_list (Ir.Cfg.reverse_postorder cfg) in
  checki "rpo covers reachable blocks" 4 (List.length rpo);
  checkb "entry first in rpo" true (List.hd rpo = f.Ir.entry);
  (* Postorder: every block appears after its descendants in DFS. Entry is
     last. *)
  let po = Array.to_list (Ir.Cfg.postorder cfg) in
  checkb "entry last in postorder" true (List.nth po (List.length po - 1) = f.Ir.entry)

let test_cfg_unreachable () =
  let b = Ir.Builder.create "unreach" in
  let entry = Ir.Builder.add_block b in
  let dead = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry (Return None);
  Ir.Builder.terminate b dead (Jump entry);
  let f = Ir.Builder.finish b in
  let cfg = Ir.Cfg.of_func f in
  checkb "dead not reachable" false (Ir.Cfg.reachable cfg dead);
  (* The dead block's edge must not pollute preds of entry. *)
  check Alcotest.(list int) "entry preds empty" [] (Ir.Cfg.preds_list cfg entry)

let test_edge_split () =
  (* diamond's edges out of the entry branch into single-pred blocks: not
     critical. The loop's back edge is not critical either (header has two
     preds but body has one succ). *)
  checki "diamond has no critical edges" 0 (Ir.Edge_split.count_critical (diamond ()));
  checki "loop has no critical edges" 0
    (Ir.Edge_split.count_critical (counting_loop ()));
  (* Branch directly into a join from a branching block: critical. *)
  let b = Ir.Builder.create "crit" in
  let p = Ir.Builder.add_param b in
  let entry = Ir.Builder.add_block b in
  let mid = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = mid; if_false = join });
  Ir.Builder.terminate b mid (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg p)));
  let f = Ir.Builder.finish b in
  checki "one critical edge" 1 (Ir.Edge_split.count_critical f);
  let g = Ir.Edge_split.run f in
  checki "no critical edges after split" 0 (Ir.Edge_split.count_critical g);
  checki "one block added" (Ir.num_blocks f + 1) (Ir.num_blocks g);
  checkb "still valid" true (Ir.Validate.run g = []);
  assert_equiv ~args:[ Ir.Int 1 ] "split t" f g;
  assert_equiv ~args:[ Ir.Int 0 ] "split f" f g;
  (* Idempotent. *)
  checki "idempotent" (Ir.num_blocks g) (Ir.num_blocks (Ir.Edge_split.run g))

let test_edge_split_retargets_phis () =
  let b = Ir.Builder.create "critphi" in
  let p = Ir.Builder.add_param b in
  let x = Ir.Builder.fresh_reg b in
  let entry = Ir.Builder.add_block b in
  let mid = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = mid; if_false = join });
  Ir.Builder.terminate b mid (Jump join);
  Ir.Builder.push_phi b join
    { dst = x; args = [ (entry, Const (Int 1)); (mid, Const (Int 2)) ] };
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  let f = Ir.Builder.finish b in
  let g = Ir.Edge_split.run f in
  checkb "valid after split" true (Ir.Validate.structure g = []);
  (* The φ argument that came along the critical edge must now be keyed by
     the fresh middle block. *)
  let join_blk = g.Ir.blocks.(join) in
  let phi = List.hd join_blk.Ir.phis in
  checkb "no arg keyed by entry anymore" true
    (not (List.mem_assoc entry phi.Ir.args));
  assert_equiv ~args:[ Ir.Int 0 ] "phi value preserved" f g

let test_printer () =
  let f = counting_loop () in
  let s = Ir.Printer.func_to_string f in
  checkb "mentions function name" true (contains s "func loop");
  checkb "uses register hints" true (contains s "i := add i, 1");
  checkb "prints branches" true (contains s "br c, b2, b3")

let test_parse_roundtrip_hand () =
  let src =
    {|
func swapish(p) {  # entry b0
b0:
  a := add p, 1
  b := fmul p, 2.5
  m[a] := b
  br p, b1, b2
b1:
  x := phi [b0: a] [b1: x]
  y := neg x
  jump b1
b2:
  t := m[0]
  ret t
}
|}
  in
  let f = Ir.Parse.func_of_string src in
  checkb "structure valid" true (Ir.Validate.structure f = []);
  checki "blocks" 3 (Ir.num_blocks f);
  checki "entry" 0 f.Ir.entry;
  (* print → parse → print is stable *)
  let printed = Ir.Printer.func_to_string f in
  let reparsed = Ir.Parse.func_of_string printed in
  check Alcotest.string "fixed point" printed (Ir.Printer.func_to_string reparsed)

let test_parse_errors () =
  let fails s =
    try
      ignore (Ir.Parse.func_of_string s);
      false
    with Ir.Parse.Error _ -> true
  in
  checkb "reserved register name" true
    (fails "func f() {\nb0:\n  add := 1\n  ret\n}");
  checkb "missing terminator" true (fails "func f() {\nb0:\n  x := 1\n}");
  checkb "bad phi" true (fails "func f() {\nb0:\n  x := phi [b0 1]\n  ret\n}");
  checkb "no blocks" true (fails "func f() {\n}");
  checkb "phi after instr" true
    (fails "func f() {\nb0:\n  x := 1\n  y := phi [b0: x]\n  ret\n}");
  (* Hostile block labels: each is a located Parse.Error, never a raw
     Failure or an allocation sized by the label's value. *)
  let error s =
    match Ir.Parse.func_of_string s with
    | _ -> None
    | exception Ir.Parse.Error (msg, line) -> Some (msg, line)
  in
  let expect name src msg line =
    check Alcotest.(option (pair string int)) name (Some (msg, line)) (error src)
  in
  let huge = "b99999999999999999999" in
  expect "label overflows int" ("func f() {\n" ^ huge ^ ":\n  ret\n}")
    (Printf.sprintf "block label %S out of range" huge) 2;
  expect "jump target overflows int" ("func f() {\nb0:\n  jump " ^ huge ^ "\n}")
    (Printf.sprintf "block label %S out of range" huge) 3;
  expect "branch target overflows int"
    ("func f(p) {\nb0:\n  br p, b0, " ^ huge ^ "\n}")
    (Printf.sprintf "block label %S out of range" huge) 3;
  expect "entry comment overflows int"
    ("func f() {  # entry " ^ huge ^ "\nb0:\n  ret\n}")
    (Printf.sprintf "block label %S out of range" huge) 1;
  expect "label beyond the input" "func f() {\nb100000000000:\n  ret\n}"
    "block label b100000000000 out of range for a 4-line function" 2;
  expect "label beyond a 4-line function" "func f() {\nb3000000:\n  ret\n}"
    "block label b3000000 out of range for a 4-line function" 2;
  expect "duplicate label" "func f() {\nb0:\n  ret\nb0:\n  ret 1\n}"
    "duplicate block label b0" 4;
  (* The bound admits the sparsest labels a printed function can carry. *)
  checkb "gap labels within the bound" false
    (fails "func f() {\nb2:\n  jump b0\nb0:\n  ret\n}")

(* The parser hands out one [Reg r] operand per register, which every
   occurrence of the register's name shares. *)
let test_parse_shares_reg_operands () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let text = Ir.Printer.func_to_string (Ssa.Construct.run_exn e.func) in
      let f = Ir.Parse.func_of_string text in
      let first = Hashtbl.create 64 in
      let uses = ref 0 and unshared = ref 0 in
      let visit op =
        match op with
        | Ir.Reg r -> (
          incr uses;
          match Hashtbl.find_opt first r with
          | None -> Hashtbl.add first r op
          | Some op0 -> if op0 != op then incr unshared)
        | Ir.Const _ -> ()
      in
      Array.iter
        (fun (b : Ir.block) ->
          List.iter (fun (p : Ir.phi) -> List.iter (fun (_, op) -> visit op) p.args) b.phis;
          List.iter
            (function
              | Ir.Copy { src; _ } | Ir.Unop { src; _ } -> visit src
              | Ir.Binop { l; r; _ } -> visit l; visit r
              | Ir.Load { idx; _ } -> visit idx
              | Ir.Store { idx; src; _ } -> visit idx; visit src)
            b.body;
          match b.term with
          | Ir.Branch { cond; _ } -> visit cond
          | Ir.Return (Some op) -> visit op
          | Ir.Jump _ | Ir.Return None -> ())
        f.blocks;
      checkb (e.name ^ ": a register is used more than once") true
        (!uses > Hashtbl.length first);
      checki (e.name ^ ": Reg operands not shared") 0 !unshared)
    (Workloads.Suite.kernels ())

(* Property: printer output always re-parses to a function that prints
   identically, across the whole SSA pipeline, and parsing is a fixed point
   too: a second print/parse gives back the same register numbering,
   register names and register count. *)
let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:60 ~name:"print/parse round-trip"
    QCheck.(pair (int_bound 10_000) (int_range 10 50))
    (fun (seed, size) ->
      let f = random_program seed size in
      let stages =
        [ f; Ssa.Construct.run_exn f;
          Core.Coalesce.run_exn (Ssa.Construct.run_exn f) ]
      in
      List.for_all
        (fun g ->
          let printed = Ir.Printer.func_to_string g in
          let reparsed = Ir.Parse.func_of_string printed in
          let again = Ir.Parse.func_of_string (Ir.Printer.func_to_string reparsed) in
          Ir.Printer.func_to_string reparsed = printed
          && again.Ir.nregs = reparsed.Ir.nregs
          && List.for_all
               (fun r -> Ir.reg_name again r = Ir.reg_name reparsed r)
               (List.init reparsed.Ir.nregs Fun.id)
          && again.Ir.blocks = reparsed.Ir.blocks
          && again.Ir.params = reparsed.Ir.params)
        stages)

(* ---- The printer against its reference ---------------------------- *)

(* [f] and everything the paper's four pipelines make of it. *)
let with_outputs f =
  f :: Ssa.Construct.run_exn f
  :: List.map
       (fun p -> (Harness.Pipelines.convert p f).Harness.Pipelines.func)
       Harness.Pipelines.all

let same_as_reference f =
  Ir.Printer.func_to_string f = Ref_printer.func_to_string f

let first_difference fs =
  List.find_opt (fun f -> not (same_as_reference f)) fs
  |> Option.map (fun (f : Ir.func) -> f.name)

let test_printer_reference_suites () =
  let entries =
    Workloads.Suite.kernels () @ Workloads.Suite.adversarial ()
  in
  check Alcotest.(option string) "kernels + adversarial, all pipelines" None
    (first_difference
       (List.concat_map (fun (e : Workloads.Suite.entry) -> with_outputs e.func) entries));
  check Alcotest.(option string) "large routines and their SSA forms" None
    (first_difference
       (List.concat_map
          (fun (e : Workloads.Suite.entry) -> [ e.func; Ssa.Construct.run_exn e.func ])
          (Workloads.Suite.large ())));
  let spec = { Workloads.Corpus.seed = 11; total = 300; mix = Workloads.Corpus.default_mix } in
  check Alcotest.(option string) "corpus slice" None
    (first_difference (List.init spec.total (Workloads.Corpus.item spec)))

(* Hand-built corner cases: %g floats (negative, exponent, integral,
   non-finite), registers with no hint or outside [0, nregs), an empty
   parameter list, no blocks, and lines far past Format's margin. *)
let test_printer_reference_corners () =
  let long = String.make 120 'v' in
  let floats =
    [ -1.5; 1e300; -2.5e-7; 2.0; -0.0; 0.1; 123456789.0; Float.nan;
      Float.infinity; Float.neg_infinity ]
  in
  let body =
    List.mapi (fun i x -> Ir.Copy { dst = i mod 3; src = Const (Float x) }) floats
    @ [
        Ir.Binop { op = Flt_mul; dst = 7; l = Reg 9; r = Const (Int (-4)) };
        Ir.Store { arr = "m"; idx = Reg (-1); src = Const (Int min_int) };
        Ir.Load { dst = 1; arr = long; idx = Const (Int max_int) };
        Ir.Unop { op = Int_to_float; dst = 0; src = Reg 2 };
      ]
  in
  let phi =
    { Ir.dst = 1; args = List.init 30 (fun l -> (l, Ir.Reg (l mod 4))) }
  in
  let blocks =
    [|
      { Ir.label = 0; phis = []; body; term = Jump 1 };
      { Ir.label = 1; phis = [ phi ]; body = []; term = Branch { cond = Reg 1; if_true = 0; if_false = 2 } };
      { Ir.label = 2; phis = []; body = []; term = Return None };
    |]
  in
  let fn ?(params = []) names =
    {
      Ir.name = "corners";
      params;
      entry = 0;
      blocks;
      nregs = 4;
      names = names_of_list names;
    }
  in
  let cases =
    [
      ("no hints, no params", fn []);
      ("long hints", fn ~params:[ 0; 3 ] [ (0, long); (1, "x"); (3, long ^ "3") ]);
      ("empty function", { (fn []) with Ir.blocks = [||]; entry = 5 });
    ]
  in
  List.iter
    (fun (name, f) ->
      check Alcotest.string name (Ref_printer.func_to_string f)
        (Ir.Printer.func_to_string f))
    cases;
  List.iter
    (fun x ->
      check Alcotest.string (Printf.sprintf "value %h" x)
        (Ref_printer.value_to_string (Ir.Float x))
        (Ir.Printer.value_to_string (Ir.Float x)))
    floats

(* Property: byte identity on generated programs, their SSA forms, the
   outputs of all four pipelines, and random (non-strict) CFGs. *)
let prop_printer_reference =
  QCheck.Test.make ~count:200 ~name:"printer = reference printer"
    QCheck.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
      let rand = make_rand seed in
      List.for_all same_as_reference
        (random_cfg rand ~blocks:(1 + (size / 6)) ~regs:(1 + (size / 4))
         :: with_outputs (random_program seed size)))

(* ---- The parser under mutated text -------------------------------- *)

type mutation = Truncate of int | Splice of int * int * int | Flip of int * char

let mutate s = function
  | Truncate i -> String.sub s 0 (i mod (String.length s + 1))
  | Splice (i, j, k) ->
    (* Move the text in [i, j) to position k. *)
    let n = String.length s in
    let i = i mod (n + 1) and j = j mod (n + 1) in
    let i, j = (min i j, max i j) in
    let cut = String.sub s 0 i ^ String.sub s j (n - j) in
    let k = k mod (String.length cut + 1) in
    String.sub cut 0 k ^ String.sub s i (j - i)
    ^ String.sub cut k (String.length cut - k)
  | Flip (i, c) ->
    if s = "" then s
    else String.mapi (fun p d -> if p = i mod String.length s then c else d) s

let mutation_gen =
  QCheck.Gen.(
    let pos = int_bound 100_000 in
    (* Bias the replacement bytes toward the syntax's own alphabet. *)
    let syntax = "b0123456789:=,[]{}()# \n-.e" in
    let byte = oneof [ map (String.get syntax) (int_bound (String.length syntax - 1)); char ] in
    oneof
      [
        map (fun i -> Truncate i) pos;
        map3 (fun i j k -> Splice (i, j, k)) pos pos pos;
        map2 (fun i c -> Flip (i, c)) pos byte;
      ])

(* Property: every mutation of a printed function parses to a function or
   raises Parse.Error; no other exception escapes. *)
let prop_parse_mutations =
  QCheck.Test.make ~count:500 ~name:"parse: mutated text is a function or Parse.Error"
    QCheck.(
      pair
        (pair (int_bound 10_000) (int_range 5 30))
        (make (Gen.list_size (Gen.int_range 1 4) mutation_gen)))
    (fun ((seed, size), muts) ->
      let f = random_program seed size in
      let base =
        Ir.Printer.func_to_string
          (if seed mod 2 = 0 then f else Ssa.Construct.run_exn f)
      in
      let text = List.fold_left mutate base muts in
      match Ir.Parse.funcs_of_string text with
      | _ -> true
      | exception Ir.Parse.Error _ -> true)

let test_dot_export () =
  let f = counting_loop () in
  let d = Ir.Dot.cfg f in
  checkb "digraph" true (contains d "digraph \"loop\"");
  checkb "edge b1->b2" true (contains d "b1 -> b2;");
  checkb "instructions listed" true (contains d "i := add i, 1");
  let d2 = Ir.Dot.cfg ~instructions:false f in
  checkb "compact mode" false (contains d2 "add");
  let t = Ir.Dot.dominator_tree f in
  checkb "tree edge entry->header" true (contains t "b0 -> b1;");
  checkb "back edge dashed" true (contains t "b2 -> b1 [style=dashed")

let suite =
  [
    Alcotest.test_case "builder + validate" `Quick test_builder_and_validate;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "parse: hand-written source" `Quick test_parse_roundtrip_hand;
    Alcotest.test_case "parse: error cases" `Quick test_parse_errors;
    Alcotest.test_case "parse: one Reg operand per register" `Quick
      test_parse_shares_reg_operands;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    Alcotest.test_case "printer = reference on suites and corpus" `Quick
      test_printer_reference_suites;
    Alcotest.test_case "printer = reference on corner cases" `Quick
      test_printer_reference_corners;
    QCheck_alcotest.to_alcotest prop_printer_reference;
    QCheck_alcotest.to_alcotest prop_parse_mutations;
    Alcotest.test_case "builder rejects unterminated" `Quick test_builder_unterminated;
    Alcotest.test_case "builder rejects double terminate" `Quick
      test_builder_double_terminate;
    Alcotest.test_case "def/uses/map helpers" `Quick test_def_uses;
    Alcotest.test_case "strictness violation detected" `Quick
      test_strictness_violation;
    Alcotest.test_case "phi structure errors detected" `Quick test_structure_errors;
    Alcotest.test_case "cfg orders" `Quick test_cfg_orders;
    Alcotest.test_case "cfg ignores unreachable blocks" `Quick test_cfg_unreachable;
    Alcotest.test_case "critical edge splitting" `Quick test_edge_split;
    Alcotest.test_case "edge split retargets phis" `Quick
      test_edge_split_retargets_phis;
    Alcotest.test_case "printer" `Quick test_printer;
  ]
