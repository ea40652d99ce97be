module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance

type error = Ir.Validate.error

let err where fmt =
  Format.kasprintf (fun what -> { Ir.Validate.where; what }) fmt

let run (f : Ir.func) : error list =
  match Ir.Validate.structure f with
  | _ :: _ as errs -> errs
  | [] ->
    let errors = ref [] in
    let add e = errors := e :: !errors in
    let cfg = Cfg.of_func f in
    let dom = Dominance.compute f cfg in
    (* Errors name the block they are found in, or the function for a
       parameter ([l] = -1); the string is formatted only when reported. *)
    let where l = if l < 0 then f.name else Printf.sprintf "%s/b%d" f.name l in
    (* Locate the unique definition of every register: (block, index) where
       index -1 means φ/parameter (top of block). *)
    let def_site = Array.make f.nregs None in
    let record at r site =
      match def_site.(r) with
      | Some _ ->
        add (err (where at) "register %s has multiple definitions" (Ir.reg_name f r))
      | None -> def_site.(r) <- Some site
    in
    List.iter (fun p -> record (-1) p (f.entry, -1)) f.params;
    Array.iter
      (fun (b : Ir.block) ->
        if Cfg.reachable cfg b.label then begin
          List.iter (fun (p : Ir.phi) -> record b.label p.dst (b.label, -1)) b.phis;
          List.iteri
            (fun i instr ->
              Option.iter (fun d -> record b.label d (b.label, i)) (Ir.def instr))
            b.body
        end)
      f.blocks;
    let check_use at r ~use_block ~use_index =
      match def_site.(r) with
      | None ->
        add (err (where at) "use of %s, which has no definition" (Ir.reg_name f r))
      | Some (db, di) ->
        let dominated =
          if db = use_block then di < use_index
          else Dominance.strictly_dominates dom db use_block
        in
        if not dominated then
          add (err (where at) "use of %s not dominated by its definition in b%d"
                 (Ir.reg_name f r) db)
    in
    Array.iter
      (fun (b : Ir.block) ->
        let l = b.label in
        if Cfg.reachable cfg l then begin
          List.iteri
            (fun i instr ->
              List.iter
                (fun r -> check_use l r ~use_block:l ~use_index:i)
                (Ir.uses instr))
            b.body;
          let nbody = List.length b.body in
          List.iter
            (fun r -> check_use l r ~use_block:l ~use_index:nbody)
            (Ir.term_uses b.term);
          (* A φ argument is a use at the end of the predecessor block. *)
          List.iter
            (fun (p : Ir.phi) ->
              List.iter
                (fun (pl, op) ->
                  List.iter
                    (fun r -> check_use l r ~use_block:pl ~use_index:max_int)
                    (Ir.operand_uses op))
                p.args)
            b.phis
        end)
      f.blocks;
    List.rev !errors

let check_exn f =
  match run f with
  | [] -> ()
  | errs ->
    let msg =
      String.concat "\n"
        (List.map (fun e -> Format.asprintf "%a" Ir.Validate.pp_error e) errs)
    in
    failwith ("SSA validation failed:\n" ^ msg)
