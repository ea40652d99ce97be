module Cfg = Ir.Cfg

type stats = {
  folded : int;
  identities : int;
  copies_propagated : int;
  consts_propagated : int;
  phis_collapsed : int;
  rounds : int;
}

(* One operand per rewritten register; chains are followed and memoized. *)
type env = {
  mapping : Ir.operand option array;
}

let rec resolve env (op : Ir.operand) =
  match op with
  | Ir.Const _ -> op
  | Ir.Reg r -> (
    match env.mapping.(r) with
    | None -> op
    | Some next ->
      let final = resolve env next in
      env.mapping.(r) <- Some final;
      final)

let fold_binop op a b =
  (* Fold only when the runtime would not fault: a constant zero divisor
     must stay in the code and fault at the same point. *)
  match Interp.eval_binop op a b with
  | v -> Some v
  | exception Interp.Error _ -> None

(* Algebraic identities that are safe under the dynamic int/float
   semantics: the replacement must produce the very same tagged value the
   operation would. Identities that could change an operand's tag (e.g.
   x*0 → Int 0 when x is a float) are deliberately omitted. *)
let identity op l r =
  match op, l, r with
  | Ir.Add, x, Ir.Const (Ir.Int 0) | Ir.Add, Ir.Const (Ir.Int 0), x -> Some x
  | Ir.Sub, x, Ir.Const (Ir.Int 0) -> Some x
  | Ir.Mul, x, Ir.Const (Ir.Int 1) | Ir.Mul, Ir.Const (Ir.Int 1), x -> Some x
  | Ir.Div, x, Ir.Const (Ir.Int 1) -> Some x
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Flt_add | Ir.Flt_sub
    | Ir.Flt_mul | Ir.Flt_div | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne
    | Ir.And | Ir.Or), _, _ -> None

(* One round-based rewriter behind both passes: [~fold:false] is copy
   propagation and φ collapsing alone; [~fold:true] adds constant folding
   and the identities. *)
let rewrite ~fold (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let folded = ref 0 in
  let identities = ref 0 in
  let copies = ref 0 in
  let consts = ref 0 in
  let phis_collapsed = ref 0 in
  let rounds = ref 0 in
  let current = ref f in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    let g = !current in
    let env = { mapping = Array.make g.Ir.nregs None } in
    let changed = ref false in
    let blocks =
      Array.map
        (fun (b : Ir.block) ->
          if not (Cfg.reachable cfg b.Ir.label) then b
          else begin
            (* φ-nodes: rewrite arguments, collapse trivial ones. An
               argument equal to the target itself (a self-loop) does not
               count against triviality. *)
            let phis =
              List.filter
                (fun (p : Ir.phi) ->
                  let args =
                    List.map (fun (pl, op) -> (pl, resolve env op)) p.args
                  in
                  let foreign =
                    List.filter (fun (_, op) -> op <> Ir.Reg p.dst) args
                    |> List.map snd |> List.sort_uniq compare
                  in
                  match foreign with
                  | [ single ] ->
                    env.mapping.(p.dst) <- Some single;
                    incr phis_collapsed;
                    changed := true;
                    false
                  | _ -> true)
                b.phis
            in
            let phis =
              List.map
                (fun (p : Ir.phi) ->
                  {
                    p with
                    Ir.args =
                      List.map (fun (pl, op) -> (pl, resolve env op)) p.args;
                  })
                phis
            in
            let body =
              List.filter
                (fun i ->
                  let i = Ir.map_instr_uses (fun r -> resolve env (Ir.Reg r)) i in
                  match i with
                  | Ir.Copy { dst; src } ->
                    env.mapping.(dst) <- Some src;
                    incr copies;
                    (match src with
                    | Ir.Const _ -> incr consts
                    | Ir.Reg _ -> ());
                    changed := true;
                    false
                  | (Ir.Unop _ | Ir.Binop _) when not fold -> true
                  | Ir.Unop { op; dst; src = Ir.Const v } -> (
                    match Interp.eval_unop op v with
                    | v' ->
                      env.mapping.(dst) <- Some (Ir.Const v');
                      incr folded;
                      changed := true;
                      false
                    | exception Interp.Error _ -> true)
                  | Ir.Binop { op; dst; l = Ir.Const a; r = Ir.Const b } -> (
                    match fold_binop op a b with
                    | Some v ->
                      env.mapping.(dst) <- Some (Ir.Const v);
                      incr folded;
                      changed := true;
                      false
                    | None -> true)
                  | Ir.Binop { op; dst; l; r } -> (
                    match identity op l r with
                    | Some replacement ->
                      env.mapping.(dst) <- Some replacement;
                      incr identities;
                      changed := true;
                      false
                    | None -> true)
                  | Ir.Unop _ | Ir.Load _ | Ir.Store _ -> true)
                b.body
            in
            (* Second pass: apply this round's mapping to the survivors. *)
            let body =
              List.map
                (fun i -> Ir.map_instr_uses (fun r -> resolve env (Ir.Reg r)) i)
                body
            in
            let term = Ir.map_term_uses (fun r -> resolve env (Ir.Reg r)) b.term in
            { b with phis; body; term }
          end)
        g.Ir.blocks
    in
    (* Apply the round's substitutions everywhere (a mapping recorded in a
       later block may be used in an earlier one through a back edge). *)
    let blocks =
      Array.map
        (fun (b : Ir.block) ->
          {
            b with
            Ir.phis =
              List.map
                (fun (p : Ir.phi) ->
                  { p with Ir.args = List.map (fun (pl, op) -> (pl, resolve env op)) p.args })
                b.phis;
            body =
              List.map
                (fun i -> Ir.map_instr_uses (fun r -> resolve env (Ir.Reg r)) i)
                b.body;
            term = Ir.map_term_uses (fun r -> resolve env (Ir.Reg r)) b.term;
          })
        blocks
    in
    current := { g with blocks };
    if not !changed then continue_ := false
  done;
  ( !current,
    {
      folded = !folded;
      identities = !identities;
      copies_propagated = !copies;
      consts_propagated = !consts;
      phis_collapsed = !phis_collapsed;
      rounds = !rounds;
    } )

let run f = rewrite ~fold:true f
let run_exn f = fst (run f)
let propagate f = rewrite ~fold:false f
