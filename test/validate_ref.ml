(* Reference definite-assignment check: the full-width solver, one bit per
   register in every block's row, as [Ir.Validate] ran it before it narrowed
   the dataflow to the names that cross a block. Matrices are allocated
   fresh per call. The oracle [test_dataflow] compares [Ir.Validate.run]'s
   error list against, message for message and in order. *)

open Support
module Cfg = Ir.Cfg
module Mir = Ir.Mir
module M = Bitset.Matrix

let err where fmt =
  Format.kasprintf (fun what -> { Ir.Validate.where; what }) fmt

let loc (f : Mir.func) l = Printf.sprintf "%s/b%d" f.name l

let matrix ~rows n = M.on_buffer (Bytes.create (rows * ((n + 7) / 8))) ~rows n

let definite_assignment (f : Mir.func) cfg =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  let out = matrix ~rows:(n + 1) f.nregs in
  let gen = matrix ~rows:(n + 1) f.nregs in
  let live = n and params = n in
  M.fill out;
  let def l (i : Mir.instr) =
    match i with
    | Copy { dst; _ } | Unop { dst; _ } | Binop { dst; _ } | Load { dst; _ } ->
      M.add gen l dst
    | Store _ -> ()
  in
  Array.iter
    (fun (b : Mir.block) ->
      List.iter (fun (p : Mir.phi) -> M.add gen b.label p.dst) b.phis;
      List.iter (def b.label) b.body)
    f.blocks;
  List.iter (M.add gen params) f.params;
  let meet l =
    if l = f.entry then M.blit out live gen params
    else if Cfg.num_preds cfg l = 0 then M.clear out live
    else begin
      M.blit out live out (Cfg.pred cfg l 0);
      for i = 1 to Cfg.num_preds cfg l - 1 do
        M.inter_into out live out (Cfg.pred cfg l i)
      done
    end
  in
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        meet l;
        ignore (M.union_into out live gen l);
        if not (M.equal out live out l) then begin
          M.blit out l out live;
          changed := true
        end)
      rpo
  done;
  let defined r = M.mem out live r in
  let use l r =
    if not (defined r) then
      add (err (loc f l) "use of %s before definite assignment" (Mir.reg_name f r))
  in
  let use_op l = function Mir.Reg r -> use l r | Mir.Const _ -> () in
  let rec walk l = function
    | [] -> ()
    | (i : Mir.instr) :: rest ->
      (match i with
      | Copy { dst; src } | Unop { dst; src; _ } ->
        use_op l src;
        M.add out live dst
      | Binop { dst; l = a; r = c; _ } ->
        use_op l a;
        use_op l c;
        M.add out live dst
      | Load { dst; idx; _ } ->
        use_op l idx;
        M.add out live dst
      | Store { idx; src; _ } ->
        use_op l idx;
        use_op l src);
      walk l rest
  in
  let rec phi_args l s (p : Mir.phi) = function
    | [] -> ()
    | (pl, op) :: rest ->
      (match op with
      | Mir.Reg r when pl = l && not (defined r) ->
        add (err (loc f l) "phi argument %s (for %s in b%d) not definitely assigned"
               (Mir.reg_name f r) (Mir.reg_name f p.dst) s)
      | Mir.Reg _ | Mir.Const _ -> ());
      phi_args l s p rest
  in
  Array.iter
    (fun l ->
      let b = f.blocks.(l) in
      meet l;
      List.iter (fun (p : Mir.phi) -> M.add out live p.dst) b.phis;
      walk l b.body;
      (match b.term with
      | Branch { cond = Mir.Reg r; _ } | Return (Some (Mir.Reg r)) ->
        if not (defined r) then
          add (err (loc f l) "terminator uses %s before definite assignment"
                 (Mir.reg_name f r))
      | Branch _ | Jump _ | Return _ -> ());
      for i = 0 to Cfg.num_succs cfg l - 1 do
        let s = Cfg.succ cfg l i in
        List.iter (fun (p : Mir.phi) -> phi_args l s p p.args) f.blocks.(s).phis
      done)
    rpo;
  List.rev !errors

(* [Ir.Validate.run] with the reference strictness check. *)
let run f =
  match Ir.Validate.structure_cfg f with
  | Ok cfg -> definite_assignment f cfg
  | Error errs -> errs
