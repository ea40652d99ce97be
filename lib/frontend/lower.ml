module B = Ir.Builder

type stats = {
  strictness_inits : int;
}

let ir_binop : Ast.binop -> Ir.binop = function
  | Add -> Ir.Add
  | Sub -> Ir.Sub
  | Mul -> Ir.Mul
  | Div -> Ir.Div
  | Mod -> Ir.Mod
  | Lt -> Ir.Lt
  | Le -> Ir.Le
  | Gt -> Ir.Gt
  | Ge -> Ir.Ge
  | Eq -> Ir.Eq
  | Ne -> Ir.Ne
  | And -> Ir.And
  | Or -> Ir.Or

let lower (fn : Ast.func) =
  let b = B.create fn.name in
  let vars : (string, Ir.reg) Hashtbl.t = Hashtbl.create 16 in
  let var name =
    match Hashtbl.find_opt vars name with
    | Some r -> r
    | None ->
      let r = B.fresh_reg ~name b in
      Hashtbl.add vars name r;
      r
  in
  List.iter
    (fun p ->
      let r = B.add_param ~name:p b in
      Hashtbl.add vars p r)
    fn.params;
  let entry = B.add_block b in
  B.set_entry b entry;
  let cur = ref entry in
  (* Expression lowering appends instructions to the current block and
     returns the operand holding the value. [into] targets the result at a
     specific register to avoid a temporary for top-level assignments. *)
  let rec lower_expr (e : Ast.expr) : Ir.operand =
    match e with
    | Int i -> Const (Int i)
    | Float x -> Const (Float x)
    | Var v -> Reg (var v)
    | _ ->
      let t = B.fresh_reg b in
      lower_into t e;
      Reg t
  and lower_into (dst : Ir.reg) (e : Ast.expr) : unit =
    match e with
    | Int i -> B.push b !cur (Copy { dst; src = Const (Int i) })
    | Float x -> B.push b !cur (Copy { dst; src = Const (Float x) })
    | Var v -> B.push b !cur (Copy { dst; src = Reg (var v) })
    | Index (arr, idx) ->
      let idx = lower_expr idx in
      B.push b !cur (Load { dst; arr; idx })
    | Unary (op, e) ->
      let src = lower_expr e in
      let op = match op with Ast.Neg -> Ir.Neg | Ast.Not -> Ir.Not in
      B.push b !cur (Unop { op; dst; src })
    | Binary (op, l, r) ->
      let l = lower_expr l in
      let r = lower_expr r in
      B.push b !cur (Binop { op = ir_binop op; dst; l; r })
    | Cast_float e ->
      let src = lower_expr e in
      B.push b !cur (Unop { op = Int_to_float; dst; src })
    | Cast_int e ->
      let src = lower_expr e in
      B.push b !cur (Unop { op = Float_to_int; dst; src })
  in
  let rec lower_stmt (s : Ast.stmt) : unit =
    if B.is_terminated b !cur then
      (* Code after a return: keep lowering into a fresh (unreachable)
         block so the builder invariants hold. *)
      cur := B.add_block b;
    match s with
    | Assign (x, e) -> lower_into (var x) e
    | Store (arr, idx, e) ->
      let idx = lower_expr idx in
      let src = lower_expr e in
      B.push b !cur (Store { arr; idx; src })
    | Return e ->
      let op = Option.map lower_expr e in
      B.terminate b !cur (Return op)
    | If (cond, then_, else_) ->
      let c = lower_expr cond in
      let then_blk = B.add_block b in
      let join = B.add_block b in
      let else_blk = if else_ = [] then join else B.add_block b in
      B.terminate b !cur (Branch { cond = c; if_true = then_blk; if_false = else_blk });
      cur := then_blk;
      List.iter lower_stmt then_;
      if not (B.is_terminated b !cur) then B.terminate b !cur (Jump join);
      if else_ <> [] then begin
        cur := else_blk;
        List.iter lower_stmt else_;
        if not (B.is_terminated b !cur) then B.terminate b !cur (Jump join)
      end;
      cur := join
    | While (cond, body) ->
      let header = B.add_block b in
      let body_blk = B.add_block b in
      let exit = B.add_block b in
      B.terminate b !cur (Jump header);
      cur := header;
      let c = lower_expr cond in
      B.terminate b !cur (Branch { cond = c; if_true = body_blk; if_false = exit });
      cur := body_blk;
      List.iter lower_stmt body;
      if not (B.is_terminated b !cur) then B.terminate b !cur (Jump header);
      cur := exit
  in
  List.iter lower_stmt fn.body;
  if not (B.is_terminated b !cur) then B.terminate b !cur (Return None);
  (* Terminate any dangling unreachable blocks (e.g. joins both of whose
     arms returned). *)
  let f0 =
    for l = 0 to B.num_blocks b - 1 do
      if not (B.is_terminated b l) then B.terminate b l (Return None)
    done;
    B.finish b
  in
  (* Strictness (Definition 2.1): initialize exactly the variables that are
     live into the entry block, as the paper prescribes. *)
  let cfg = Ir.Cfg.of_func f0 in
  let scratch = Support.Scratch.domain () in
  let live = Analysis.Liveness.compute_into ~scratch f0 cfg in
  let entry_live = Analysis.Liveness.live_in live f0.entry in
  let params = f0.params in
  let inits =
    Support.Bitset.fold
      (fun r acc ->
        if List.mem r params then acc
        else Ir.Copy { dst = r; src = Const (Int 0) } :: acc)
      entry_live []
  in
  Analysis.Liveness.release scratch live;
  let blocks =
    Array.map
      (fun (blk : Ir.block) ->
        if blk.label = f0.entry then { blk with body = inits @ blk.body }
        else blk)
      f0.blocks
  in
  (Ir.with_blocks f0 blocks, { strictness_inits = List.length inits })

let compile source =
  List.map (fun f -> fst (lower f)) (Parser.program source)

let compile_one source = fst (lower (Parser.func source))
