(* Shared utilities for the test suites: small hand-built functions, random
   CFG/program generation, independent reference implementations used as
   oracles for the analyses, and text mutations for hostile-input
   properties. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Hand-built functions                                               *)
(* ------------------------------------------------------------------ *)

(* A straight-line function: x := a + 1; y := x * 2; ret y. *)
let straight_line () =
  let b = Ir.Builder.create "straight" in
  let a = Ir.Builder.add_param ~name:"a" b in
  let l = Ir.Builder.add_block b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let y = Ir.Builder.fresh_reg ~name:"y" b in
  Ir.Builder.push b l (Binop { op = Add; dst = x; l = Reg a; r = Const (Int 1) });
  Ir.Builder.push b l (Binop { op = Mul; dst = y; l = Reg x; r = Const (Int 2) });
  Ir.Builder.terminate b l (Return (Some (Reg y)));
  Ir.Builder.finish b

(* A diamond: entry branches on the parameter, both sides assign x, join
   returns x (non-SSA: x is one register). *)
let diamond () =
  let b = Ir.Builder.create "diamond" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let x = Ir.Builder.fresh_reg ~name:"x" b in
  let entry = Ir.Builder.add_block b in
  let then_ = Ir.Builder.add_block b in
  let else_ = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = then_; if_false = else_ });
  Ir.Builder.push b then_ (Copy { dst = x; src = Const (Int 1) });
  Ir.Builder.terminate b then_ (Jump join);
  Ir.Builder.push b else_ (Copy { dst = x; src = Const (Int 2) });
  Ir.Builder.terminate b else_ (Jump join);
  Ir.Builder.terminate b join (Return (Some (Reg x)));
  Ir.Builder.finish b

(* A while loop: i := 0; while (i < n) i := i + 1; ret i. *)
let counting_loop () =
  let b = Ir.Builder.create "loop" in
  let n = Ir.Builder.add_param ~name:"n" b in
  let i = Ir.Builder.fresh_reg ~name:"i" b in
  let c = Ir.Builder.fresh_reg ~name:"c" b in
  let entry = Ir.Builder.add_block b in
  let header = Ir.Builder.add_block b in
  let body = Ir.Builder.add_block b in
  let exit_ = Ir.Builder.add_block b in
  Ir.Builder.push b entry (Copy { dst = i; src = Const (Int 0) });
  Ir.Builder.terminate b entry (Jump header);
  Ir.Builder.push b header (Binop { op = Lt; dst = c; l = Reg i; r = Reg n });
  Ir.Builder.terminate b header
    (Branch { cond = Reg c; if_true = body; if_false = exit_ });
  Ir.Builder.push b body (Binop { op = Add; dst = i; l = Reg i; r = Const (Int 1) });
  Ir.Builder.terminate b body (Jump header);
  Ir.Builder.terminate b exit_ (Return (Some (Reg i)));
  Ir.Builder.finish b

(* The paper's Figure 3: the virtual swap. Two φ-candidate variables take
   opposite constant values on the two sides of a conditional. Built
   directly in SSA-with-folded-copies form (Figure 3b). *)
let virtual_swap_ssa () =
  let b = Ir.Builder.create "virtual_swap" in
  let p = Ir.Builder.add_param ~name:"p" b in
  let a1 = Ir.Builder.fresh_reg ~name:"a1" b in
  let b1 = Ir.Builder.fresh_reg ~name:"b1" b in
  let x2 = Ir.Builder.fresh_reg ~name:"x2" b in
  let y2 = Ir.Builder.fresh_reg ~name:"y2" b in
  let r = Ir.Builder.fresh_reg ~name:"r" b in
  let entry = Ir.Builder.add_block b in
  let left = Ir.Builder.add_block b in
  let right = Ir.Builder.add_block b in
  let join = Ir.Builder.add_block b in
  Ir.Builder.push b entry (Copy { dst = a1; src = Const (Int 1) });
  Ir.Builder.push b entry (Copy { dst = b1; src = Const (Int 2) });
  Ir.Builder.terminate b entry
    (Branch { cond = Reg p; if_true = left; if_false = right });
  Ir.Builder.terminate b left (Jump join);
  Ir.Builder.terminate b right (Jump join);
  (* x2 = φ(a1, b1); y2 = φ(b1, a1) — the copies were folded during SSA
     construction, leaving the swap latent in the φs. *)
  Ir.Builder.push_phi b join
    { dst = x2; args = [ (left, Reg a1); (right, Reg b1) ] };
  Ir.Builder.push_phi b join
    { dst = y2; args = [ (left, Reg b1); (right, Reg a1) ] };
  Ir.Builder.push b join (Binop { op = Div; dst = r; l = Reg x2; r = Reg y2 });
  Ir.Builder.terminate b join (Return (Some (Reg r)));
  Ir.Builder.finish b

(* ------------------------------------------------------------------ *)
(* Random CFG generator (pure IR level, for analysis oracles)          *)
(* ------------------------------------------------------------------ *)

(* Random strict function: a pool of registers, blocks with random bodies
   and branches. Strictness is guaranteed by defining every register in the
   entry block. Termination is NOT guaranteed (may loop), so these funcs
   are for static analyses only, not the interpreter. *)
let random_cfg rand ~blocks:nblocks ~regs:nregs =
  let b = Ir.Builder.create "random" in
  let regs = Array.init nregs (fun i -> Ir.Builder.fresh_reg ~name:(Printf.sprintf "v%d" i) b) in
  let labels = Array.init nblocks (fun _ -> Ir.Builder.add_block b) in
  (* Entry defines everything. *)
  Array.iter
    (fun r -> Ir.Builder.push b labels.(0) (Copy { dst = r; src = Const (Int 0) }))
    regs;
  let reg () = regs.(rand nregs) in
  Array.iteri
    (fun i l ->
      let n_instrs = rand 4 in
      for _ = 1 to n_instrs do
        match rand 3 with
        | 0 -> Ir.Builder.push b l (Copy { dst = reg (); src = Reg (reg ()) })
        | 1 ->
          Ir.Builder.push b l
            (Binop { op = Add; dst = reg (); l = Reg (reg ()); r = Reg (reg ()) })
        | _ ->
          Ir.Builder.push b l
            (Binop { op = Lt; dst = reg (); l = Reg (reg ()); r = Const (Int 3) })
      done;
      (* Terminator: mostly forward edges, some back edges, some returns.
         The entry block never returns so most blocks stay reachable. *)
      let target () = labels.(1 + rand (nblocks - 1)) in
      let t =
        if i = 0 then Ir.Jump labels.(if nblocks > 1 then 1 else 0)
        else
          match rand 5 with
          | 0 -> Ir.Return (Some (Reg (reg ())))
          | 1 | 2 -> Ir.Jump (target ())
          | _ ->
            Ir.Branch { cond = Reg (reg ()); if_true = target (); if_false = target () }
      in
      Ir.Builder.terminate b l t)
    labels;
  Ir.Builder.finish b

(* Deterministic PRNG for qcheck-independent generation. *)
let make_rand seed =
  let state = ref (seed * 2 + 1) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    abs (!state / 65536) mod bound

(* ------------------------------------------------------------------ *)
(* Reference implementations (oracles)                                 *)
(* ------------------------------------------------------------------ *)

(* Naive dominators: iterate Dom(b) = {b} ∪ ∩ Dom(preds) to fixpoint with
   list-based sets. O(n³)-ish but obviously correct. *)
let naive_dominators (f : Ir.func) =
  let cfg = Ir.Cfg.of_func f in
  let n = Ir.num_blocks f in
  let all = List.init n (fun i -> i) in
  let dom = Array.make n all in
  dom.(f.entry) <- [ f.entry ];
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      if b <> f.entry && Ir.Cfg.reachable cfg b then begin
        let preds = Ir.Cfg.preds_list cfg b in
        let inter =
          match preds with
          | [] -> all
          | p :: ps ->
            List.fold_left
              (fun acc q -> List.filter (fun x -> List.mem x dom.(q)) acc)
              dom.(p) ps
        in
        let next = List.sort_uniq compare (b :: inter) in
        if next <> dom.(b) then begin
          dom.(b) <- next;
          changed := true
        end
      end
    done
  done;
  fun a bb ->
    (* does a dominate bb? *)
    Ir.Cfg.reachable cfg bb && Ir.Cfg.reachable cfg a && List.mem a dom.(bb)

(* Naive liveness with list-sets, φ-aware in the same edge-based way. *)
let naive_liveness (f : Ir.func) =
  let cfg = Ir.Cfg.of_func f in
  let n = Ir.num_blocks f in
  let live_in = Array.make n [] in
  let live_out = Array.make n [] in
  let uses_b = Array.make n [] in
  let defs_b = Array.make n [] in
  Array.iter
    (fun (blk : Ir.block) ->
      let l = blk.label in
      let defs = ref [] in
      let uses = ref [] in
      List.iter (fun (p : Ir.phi) -> defs := p.dst :: !defs) blk.phis;
      List.iter
        (fun i ->
          List.iter
            (fun u -> if not (List.mem u !defs) then uses := u :: !uses)
            (Ir.uses i);
          Option.iter (fun d -> defs := d :: !defs) (Ir.def i))
        blk.body;
      List.iter
        (fun u -> if not (List.mem u !defs) then uses := u :: !uses)
        (Ir.term_uses blk.term);
      uses_b.(l) <- List.sort_uniq compare !uses;
      defs_b.(l) <- List.sort_uniq compare !defs)
    f.blocks;
  let phi_out = Array.make n [] in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              List.iter
                (fun r -> phi_out.(pl) <- r :: phi_out.(pl))
                (Ir.operand_uses op))
            p.args)
        blk.phis)
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    for l = n - 1 downto 0 do
      let out =
        List.sort_uniq compare
          (phi_out.(l)
          @ List.concat_map (fun s -> live_in.(s)) (Ir.Cfg.succs_list cfg l))
      in
      let inb =
        List.sort_uniq compare
          (uses_b.(l) @ List.filter (fun r -> not (List.mem r defs_b.(l))) out)
      in
      if out <> live_out.(l) || inb <> live_in.(l) then begin
        live_out.(l) <- out;
        live_in.(l) <- inb;
        changed := true
      end
    done
  done;
  (live_in, live_out)

(* ------------------------------------------------------------------ *)
(* Interpreter-based equivalence                                       *)
(* ------------------------------------------------------------------ *)

let outcomes_equal = Interp.equivalent

let run_args = [ Ir.Int 7; Ir.Int 3 ]

let assert_equiv ?(args = run_args) name f g =
  let a = Interp.run ~args f in
  let b = Interp.run ~args g in
  checkb (name ^ ": same semantics") true (outcomes_equal a b)

(* The paper's New route, as every compile entry point takes it. *)
let new_pipeline = Pass.Spec.parse_exn "construct:pruned,coalesce"

(* Given register names from [(register, name)] pairs. *)
let names_of_list pairs =
  let n = List.fold_left (fun n (r, _) -> max n (r + 1)) 0 pairs in
  let a = Array.make n "" in
  List.iter (fun (r, s) -> a.(r) <- s) pairs;
  Ir.Names.given a

(* Random but *terminating and fault-free* programs via the mini-language
   generator. *)
let random_program seed size =
  Workloads.Generator.generate_ir
    { Workloads.Generator.default with seed; size }

(* Reference natural loops: for every back edge t → h (h dominates t) a
   fresh block-length membership array, flood-filled backwards from t and
   stopped at h; bodies of back edges sharing a header are merged before
   depths are counted. Returns (depth per block, headers ascending). *)
let naive_loops cfg dom =
  let n = Ir.Cfg.num_blocks cfg in
  let depth = Array.make n 0 in
  let loop_of t h =
    let in_loop = Array.make n false in
    in_loop.(h) <- true;
    let rec visit b =
      if not in_loop.(b) then begin
        in_loop.(b) <- true;
        List.iter visit (Ir.Cfg.preds_list cfg b)
      end
    in
    visit t;
    in_loop
  in
  let headers = ref [] in
  for h = 0 to n - 1 do
    let tails =
      List.filter
        (fun t ->
          Ir.Cfg.reachable cfg t
          && List.mem h (Ir.Cfg.succs_list cfg t)
          && Analysis.Dominance.dominates dom h t)
        (List.init n Fun.id)
    in
    if tails <> [] then begin
      headers := h :: !headers;
      let body = Array.make n false in
      List.iter
        (fun t -> Array.iteri (fun b x -> if x then body.(b) <- true) (loop_of t h))
        tails;
      Array.iteri (fun b x -> if x then depth.(b) <- depth.(b) + 1) body
    end
  done;
  (depth, List.rev !headers)

(* ------------------------------------------------------------------ *)
(* Reference printer: the Format vertical-box printer the library used
   before its Buffer printer. Cache keys hash printed text, so the
   library's output must stay byte-identical to this one.              *)
(* ------------------------------------------------------------------ *)

module Ref_printer = struct
  let pp_value ppf = function
    | Ir.Int i -> Format.fprintf ppf "%d" i
    | Ir.Float x -> Format.fprintf ppf "%g" x

  let pp_reg (f : Ir.func) ppf r = Format.pp_print_string ppf (Ir.reg_name f r)

  let pp_operand f ppf = function
    | Ir.Reg r -> pp_reg f ppf r
    | Ir.Const v -> pp_value ppf v

  let binop_name = function
    | Ir.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"
    | Mod -> "mod" | Flt_add -> "fadd" | Flt_sub -> "fsub"
    | Flt_mul -> "fmul" | Flt_div -> "fdiv" | Lt -> "lt" | Le -> "le"
    | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne" | And -> "and"
    | Or -> "or"

  let unop_name = function
    | Ir.Neg -> "neg" | Not -> "not"
    | Int_to_float -> "i2f" | Float_to_int -> "f2i"

  let pp_instr f ppf = function
    | Ir.Copy { dst; src } ->
      Format.fprintf ppf "%a := %a" (pp_reg f) dst (pp_operand f) src
    | Unop { op; dst; src } ->
      Format.fprintf ppf "%a := %s %a" (pp_reg f) dst (unop_name op)
        (pp_operand f) src
    | Binop { op; dst; l; r } ->
      Format.fprintf ppf "%a := %s %a, %a" (pp_reg f) dst (binop_name op)
        (pp_operand f) l (pp_operand f) r
    | Load { dst; arr; idx } ->
      Format.fprintf ppf "%a := %s[%a]" (pp_reg f) dst arr (pp_operand f) idx
    | Store { arr; idx; src } ->
      Format.fprintf ppf "%s[%a] := %a" arr (pp_operand f) idx
        (pp_operand f) src

  let pp_phi f ppf (p : Ir.phi) =
    Format.fprintf ppf "%a := phi" (pp_reg f) p.dst;
    List.iter
      (fun (l, op) -> Format.fprintf ppf " [b%d: %a]" l (pp_operand f) op)
      p.args

  let pp_terminator f ppf = function
    | Ir.Jump l -> Format.fprintf ppf "jump b%d" l
    | Branch { cond; if_true; if_false } ->
      Format.fprintf ppf "br %a, b%d, b%d" (pp_operand f) cond if_true
        if_false
    | Return (Some op) -> Format.fprintf ppf "ret %a" (pp_operand f) op
    | Return None -> Format.fprintf ppf "ret"

  let pp_block f ppf (b : Ir.block) =
    Format.fprintf ppf "@[<v 2>b%d:" b.label;
    List.iter (fun p -> Format.fprintf ppf "@,%a" (pp_phi f) p) b.phis;
    List.iter (fun i -> Format.fprintf ppf "@,%a" (pp_instr f) i) b.body;
    Format.fprintf ppf "@,%a@]" (pp_terminator f) b.term

  let pp_func ppf (f : Ir.func) =
    Format.fprintf ppf "@[<v>func %s(%a) {  # entry b%d@," f.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (pp_reg f))
      f.params f.entry;
    Array.iter (fun b -> Format.fprintf ppf "%a@," (pp_block f) b) f.blocks;
    Format.fprintf ppf "}@]"

  let func_to_string f = Format.asprintf "%a" pp_func f
  let value_to_string v = Format.asprintf "%a" pp_value v
end

(* ------------------------------------------------------------------ *)
(* Hostile text: mutations of a printed function or a cache entry     *)
(* ------------------------------------------------------------------ *)

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
