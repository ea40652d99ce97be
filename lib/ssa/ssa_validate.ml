module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance

type error = Ir.Validate.error

let err where fmt =
  Format.kasprintf (fun what -> { Ir.Validate.where; what }) fmt

(* The CFG comes from the structural check. Definition sites are two
   register-indexed int arrays, and operands are matched in place, so a
   valid function costs its CFG, its dominators and those arrays, nothing
   per instruction. *)
let run (f : Ir.func) : error list =
  match Ir.Validate.structure_cfg f with
  | Error errs -> errs
  | Ok cfg ->
    let errors = ref [] in
    let add e = errors := e :: !errors in
    let dom = Dominance.compute f cfg in
    (* Errors name the block they are found in, or the function for a
       parameter ([l] = -1); the string is formatted only when reported. *)
    let where l = if l < 0 then f.name else Printf.sprintf "%s/b%d" f.name l in
    (* The unique definition of every register: its block ([-1] when it
       has none) and its index there ([-1] for a φ or parameter, at the top
       of the block). *)
    let def_block = Array.make f.nregs (-1) in
    let def_index = Array.make f.nregs (-1) in
    let record at r block index =
      if def_block.(r) >= 0 then
        add (err (where at) "register %s has multiple definitions" (Ir.reg_name f r))
      else begin
        def_block.(r) <- block;
        def_index.(r) <- index
      end
    in
    let rec record_body l i = function
      | [] -> ()
      | (instr : Ir.instr) :: rest ->
        (match instr with
        | Copy { dst; _ } | Unop { dst; _ } | Binop { dst; _ } | Load { dst; _ } ->
          record l dst l i
        | Store _ -> ());
        record_body l (i + 1) rest
    in
    List.iter (fun p -> record (-1) p f.entry (-1)) f.params;
    Array.iter
      (fun (b : Ir.block) ->
        let l = b.label in
        if Cfg.reachable cfg l then begin
          List.iter (fun (p : Ir.phi) -> record l p.dst l (-1)) b.phis;
          record_body l 0 b.body
        end)
      f.blocks;
    let check_use at r ~use_block ~use_index =
      let db = def_block.(r) in
      if db < 0 then
        add (err (where at) "use of %s, which has no definition" (Ir.reg_name f r))
      else
        let dominated =
          if db = use_block then def_index.(r) < use_index
          else Dominance.strictly_dominates dom db use_block
        in
        if not dominated then
          add (err (where at) "use of %s not dominated by its definition in b%d"
                 (Ir.reg_name f r) db)
    in
    let use_op at op ~use_block ~use_index =
      match op with
      | Ir.Reg r -> check_use at r ~use_block ~use_index
      | Ir.Const _ -> ()
    in
    let rec check_body l i = function
      | [] -> i
      | (instr : Ir.instr) :: rest ->
        (match instr with
        | Copy { src = a; _ } | Unop { src = a; _ } | Load { idx = a; _ } ->
          use_op l a ~use_block:l ~use_index:i
        | Binop { l = a; r = c; _ } | Store { idx = a; src = c; _ } ->
          use_op l a ~use_block:l ~use_index:i;
          use_op l c ~use_block:l ~use_index:i);
        check_body l (i + 1) rest
    in
    (* A φ argument is a use at the end of the predecessor block. *)
    let rec check_args l = function
      | [] -> ()
      | (pl, op) :: rest ->
        use_op l op ~use_block:pl ~use_index:max_int;
        check_args l rest
    in
    Array.iter
      (fun (b : Ir.block) ->
        let l = b.label in
        if Cfg.reachable cfg l then begin
          let nbody = check_body l 0 b.body in
          (match b.term with
          | Branch { cond = op; _ } | Return (Some op) ->
            use_op l op ~use_block:l ~use_index:nbody
          | Jump _ | Return None -> ());
          List.iter (fun (p : Ir.phi) -> check_args l p.args) b.phis
        end)
      f.blocks;
    List.rev !errors

let check_exn f =
  match run f with
  | [] -> ()
  | errs -> failwith ("SSA validation failed:\n" ^ Ir.Validate.render errs)
