open Support

type error = {
  where : string;
  what : string;
}

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

exception Invalid of string

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

(* Block locations are formatted only when an error is reported, so a valid
   function costs no string per block. *)
let loc (f : Mir.func) l = Printf.sprintf "%s/b%d" f.name l

(* The names that cross a block, for definite assignment: the registers
   used in some block before any definition there (upward-exposed) and the
   φ arguments. The structural walk finds them, and the registers each
   block defines. [cells] is one arena buffer: cell [r < regs] is register
   [r]'s dense number, or -1 for every other register; cell [regs + r] is
   the last block that defined [r] (-1 before any). The walk meets a
   block's φs after its body, so a φ target used in its own block is
   counted upward-exposed too: an extra name solved exactly, never a
   missing one. *)
type names = {
  cells : int array;
  regs : int;
  mutable width : int;
  mutable defs : int array;  (* per block in label order: a count, then its defined registers *)
  mutable defs_len : int;
}

let column c r =
  if c.cells.(r) < 0 then begin
    c.cells.(r) <- c.width;
    c.width <- c.width + 1
  end

let push_def c x =
  if c.defs_len = Array.length c.defs then
    c.defs <- Scratch.grow_ints (Scratch.domain ()) c.defs;
  c.defs.(c.defs_len) <- x;
  c.defs_len <- c.defs_len + 1

(* A use or a definition of register [r], in range, in block [l]. *)
let classify_use c l r = if c.cells.(c.regs + r) <> l then column c r

let classify_def c l r =
  if c.cells.(c.regs + r) <> l then begin
    c.cells.(c.regs + r) <- l;
    push_def c r
  end

(* The structural checks, and on success the CFG they built: [strictness]'s
   walk and [Ssa.Ssa_validate] need the same graph, so they take it from
   here instead of rebuilding it. With [names], the walk also classifies
   every operand for definite assignment. Operands are matched in place
   and lists walked by direct recursion, so a valid function costs its CFG
   and two label-indexed stamp arrays (and the classification's arena
   buffers), not a list or closure per instruction. *)
let walk ?names (f : Mir.func) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  if n = 0 then add (err f.name "function has no blocks");
  let label at l =
    if l < 0 || l >= n then add (err (loc f at) "label b%d out of range" l)
  in
  let nregs = f.nregs in
  let reg at r =
    if r < 0 || r >= nregs then add (err (loc f at) "register %d out of range" r)
  in
  let operand at = function Mir.Reg r -> reg at r | Mir.Const _ -> () in
  (* A body operand, a definition and a φ argument of block [at]: checked,
     and classified when [names] is given. *)
  let use at = function
    | Mir.Reg r when r >= 0 && r < nregs -> (
      match names with Some c -> classify_use c at r | None -> ())
    | Mir.Reg r -> reg at r
    | Mir.Const _ -> ()
  in
  let def at r =
    if r >= 0 && r < nregs then
      match names with Some c -> classify_def c at r | None -> ()
    else reg at r
  in
  let arg at = function
    | Mir.Reg r when r >= 0 && r < nregs -> (
      match names with Some c -> column c r | None -> ())
    | Mir.Reg r -> reg at r
    | Mir.Const _ -> ()
  in
  let rec body at = function
    | [] -> ()
    | (i : Mir.instr) :: rest ->
      (match i with
      | Copy { dst; src } | Unop { dst; src; _ } ->
        use at src;
        def at dst
      | Binop { dst; l; r; _ } ->
        use at l;
        use at r;
        def at dst
      | Load { dst; idx; _ } ->
        use at idx;
        def at dst
      | Store { idx; src; _ } ->
        use at idx;
        use at src);
      body at rest
  in
  let rec args at = function
    | [] -> ()
    | (pl, op) :: rest ->
      label at pl;
      arg at op;
      args at rest
  in
  let rec phis at = function
    | [] -> ()
    | (p : Mir.phi) :: rest ->
      def at p.dst;
      args at p.args;
      phis at rest
  in
  if f.entry < 0 || f.entry >= n then begin
    add (err f.name "entry label b%d out of range" f.entry);
    Error (List.rev !errors)
  end
  else begin
    for l = 0 to n - 1 do
      let b = f.blocks.(l) in
      if b.label <> l then
        add (err (loc f l) "block label field is b%d, expected b%d" b.label l);
      (match b.term with
      | Jump s -> label l s
      | Branch { cond; if_true; if_false } ->
        label l if_true;
        label l if_false;
        operand l cond
      | Return (Some op) -> operand l op
      | Return None -> ());
      let defs_at =
        match names with
        | Some c ->
          push_def c 0;
          c.defs_len - 1
        | None -> 0
      in
      body l b.body;
      (* The terminator's use is classified after the body that feeds it;
         its range was checked above. *)
      (match b.term, names with
      | (Branch { cond = Mir.Reg r; _ } | Return (Some (Mir.Reg r))), Some c
        when r >= 0 && r < nregs ->
        classify_use c l r
      | _ -> ());
      phis l b.phis;
      match names with
      | Some c -> c.defs.(defs_at) <- c.defs_len - defs_at - 1
      | None -> ()
    done;
    if !errors <> [] then Error (List.rev !errors)
    else begin
      let cfg = Cfg.of_func f in
      if Cfg.num_preds cfg f.entry > 0 then
        add (err f.name "entry block b%d has predecessors" f.entry);
      if f.blocks.(f.entry).phis <> [] then
        add (err f.name "entry block b%d has phi-nodes" f.entry);
      (* φ labels against predecessors, with two stamp arrays:
         [pred_of.(p) = l] marks [p] as a predecessor of block [l], and
         [seen.(pl) = k] marks label [pl] as met in the [k]-th φ. The labels must be exactly the predecessors: no label
         twice, none that is not a predecessor, and as many as there are
         predecessors. *)
      let pred_of = Array.make n (-1) in
      let seen = Array.make n (-1) in
      let stamp = ref 0 in
      (* Distinct labels of the current φ, and how many of them are not
         predecessors. *)
      let distinct = ref 0 and strays = ref 0 in
      let rec scan l = function
        | [] -> ()
        | (pl, _) :: rest ->
          if seen.(pl) <> !stamp then begin
            seen.(pl) <- !stamp;
            incr distinct;
            if pred_of.(pl) <> l then incr strays
          end;
          scan l rest
      in
      let check_phi l npreds (p : Mir.phi) =
        incr stamp;
        distinct := 0;
        strays := 0;
        scan l p.args;
        if !distinct < List.length p.args then
          add (err (loc f l) "phi for %s has duplicate argument labels"
                 (Mir.reg_name f p.dst));
        if !strays > 0 || !distinct <> npreds then begin
          let labels = List.sort_uniq compare (List.map fst p.args) in
          let show ls = String.concat ";" (List.map string_of_int ls) in
          add (err (loc f l)
                 "phi for %s has argument labels [%s], predecessors are [%s]"
                 (Mir.reg_name f p.dst) (show labels)
                 (show (Cfg.preds_list cfg l)))
        end
      in
      for l = 0 to n - 1 do
        match f.blocks.(l).phis with
        | [] -> ()
        | phis ->
          if Cfg.reachable cfg l then begin
            let npreds = Cfg.num_preds cfg l in
            for i = 0 to npreds - 1 do
              pred_of.(Cfg.pred cfg l i) <- l
            done;
            List.iter (check_phi l npreds) phis
          end
      done;
      if !errors = [] then Ok cfg else Error (List.rev !errors)
    end
  end

let structure_cfg f = walk f

let structure f =
  match structure_cfg f with Ok _ -> [] | Error errs -> errs

module M = Bitset.Matrix

(* Definite assignment: forward must-analysis. IN(b) = ∩ OUT(p) over
   predecessors; a φ defines its target at block entry; a φ argument is a use
   at the end of the corresponding predecessor. Runs on a structurally valid
   function, its CFG and the walk's [names]. It solves over the names that
   cross a block only: every use of any other register follows a
   definition in its own block, so it is always assigned there, and the
   problem is exact per variable, so the verdicts on the indexed names are
   those of a solve over every register. OUT and GEN are rows of two
   matrices, [width] columns wide, from the domain's scratch arena, each
   with one spare row: row [n] of [out] is the working set, row [n] of
   [gen] the parameters. GEN is filled from the walk's per-block
   definitions, not a walk of its own. The cost is linear in blocks +
   instructions plus (blocks × width / 64) word steps per round, and a
   valid function allocates no list, option or closure per instruction. *)
let definite_assignment ?obs (f : Mir.func) cfg c =
  Option.iter (fun o -> Obs.add_work o "definite_assignment_solves" 1) obs;
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  let scratch = Scratch.domain () in
  let out = Scratch.acquire_matrix scratch ~rows:(n + 1) c.width in
  let gen = Scratch.acquire_matrix scratch ~rows:(n + 1) c.width in
  let live = n and params = n in
  let index = c.cells in
  M.fill out;
  let d = ref 0 in
  for l = 0 to n - 1 do
    for j = !d + 1 to !d + c.defs.(!d) do
      let s = index.(c.defs.(j)) in
      if s >= 0 then M.add gen l s
    done;
    d := !d + c.defs.(!d) + 1
  done;
  List.iter
    (fun r ->
      if r < 0 || r >= f.nregs then invalid_arg "Validate: parameter out of range";
      if index.(r) >= 0 then M.add gen params index.(r))
    f.params;
  (* Overwrite the working row with IN(l). *)
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
  (* Re-walk each block tracking point-wise definedness. *)
  let defined r =
    let s = index.(r) in
    s < 0 || M.mem out live s
  in
  let assign r =
    let s = index.(r) in
    if s >= 0 then M.add out live s
  in
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
        assign dst
      | Binop { dst; l = a; r = c; _ } ->
        use_op l a;
        use_op l c;
        assign dst
      | Load { dst; idx; _ } ->
        use_op l idx;
        assign dst
      | Store { idx; src; _ } ->
        use_op l idx;
        use_op l src);
      walk l rest
  in
  (* φ arguments of successor [s] flowing out of [l] are uses at the end of
     [l]. *)
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
      List.iter (fun (p : Mir.phi) -> assign p.dst) b.phis;
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
  Scratch.release_matrix scratch out;
  Scratch.release_matrix scratch gen;
  List.rev !errors

(* The structural checks, then definite assignment over the names the
   walk found; [skipped] stands in for the strictness errors when the
   structure is invalid. *)
let checked ?obs ~skipped (f : Mir.func) =
  let scratch = Scratch.domain () in
  let nregs = f.nregs in
  let names =
    {
      cells = Scratch.acquire_ints scratch (2 * nregs);
      regs = nregs;
      width = 0;
      defs = Scratch.acquire_ints scratch (Mir.num_blocks f + nregs);
      defs_len = 0;
    }
  in
  Array.fill names.cells 0 (2 * nregs) (-1);
  let result =
    match walk ~names f with
    | Ok cfg -> (
      match definite_assignment ?obs f cfg names with
      | [] -> Ok cfg
      | errs -> Error errs)
    | Error errs -> Error (skipped errs)
  in
  Scratch.release_ints scratch names.cells;
  Scratch.release_ints scratch names.defs;
  result

let errors = function Ok _ -> [] | Error errs -> errs

let strictness (f : Mir.func) =
  errors
    (checked
       ~skipped:(fun _ -> [ err f.name "skipping strictness: structure invalid" ])
       f)

let run_cfg ?obs f = checked ?obs ~skipped:Fun.id f

let run f = errors (run_cfg f)

let render errs =
  String.concat "\n" (List.map (fun e -> Format.asprintf "%a" pp_error e) errs)

let check_exn f =
  match run f with [] -> () | errs -> raise (Invalid (render errs))
