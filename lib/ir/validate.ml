open Support

type error = {
  where : string;
  what : string;
}

let pp_error ppf e = Format.fprintf ppf "%s: %s" e.where e.what

let err where fmt = Format.kasprintf (fun what -> { where; what }) fmt

(* Block locations are formatted only when an error is reported, so a valid
   function costs no string per block. *)
let loc (f : Mir.func) l = Printf.sprintf "%s/b%d" f.name l

(* The structural checks, and on success the CFG they built: [strictness]'s
   walk needs the same graph, so [run] hands it on instead of rebuilding. *)
let structure_cfg (f : Mir.func) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  if n = 0 then add (err f.name "function has no blocks");
  let check_label at l =
    if l < 0 || l >= n then add (err (loc f at) "label b%d out of range" l)
  in
  let check_reg at r =
    if r < 0 || r >= f.nregs then add (err (loc f at) "register %d out of range" r)
  in
  if f.entry < 0 || f.entry >= n then begin
    add (err f.name "entry label b%d out of range" f.entry);
    Error (List.rev !errors)
  end
  else begin
    Array.iteri
      (fun l (b : Mir.block) ->
        if b.label <> l then
          add (err (loc f l) "block label field is b%d, expected b%d" b.label l);
        List.iter (check_label l) (Mir.successors b.term);
        List.iter (check_reg l) (Mir.term_uses b.term);
        List.iter
          (fun i ->
            List.iter (check_reg l) (Mir.uses i);
            Option.iter (check_reg l) (Mir.def i))
          b.body;
        List.iter
          (fun (p : Mir.phi) ->
            check_reg l p.dst;
            List.iter
              (fun (pl, op) ->
                check_label l pl;
                List.iter (check_reg l) (Mir.operand_uses op))
              p.args)
          b.phis)
      f.blocks;
    if !errors <> [] then Error (List.rev !errors)
    else begin
      let cfg = Cfg.of_func f in
      if Cfg.num_preds cfg f.entry > 0 then
        add (err f.name "entry block b%d has predecessors" f.entry);
      if f.blocks.(f.entry).phis <> [] then
        add (err f.name "entry block b%d has phi-nodes" f.entry);
      Array.iter
        (fun (b : Mir.block) ->
          if Cfg.reachable cfg b.label then begin
            let preds = Cfg.preds_list cfg b.label in
            List.iter
              (fun (p : Mir.phi) ->
                let arg_labels = List.map fst p.args in
                let sorted = List.sort_uniq compare arg_labels in
                if List.length sorted <> List.length arg_labels then
                  add (err (loc f b.label) "phi for %s has duplicate argument labels"
                         (Mir.reg_name f p.dst));
                if sorted <> preds then
                  add (err (loc f b.label)
                         "phi for %s has argument labels [%s], predecessors are [%s]"
                         (Mir.reg_name f p.dst)
                         (String.concat ";" (List.map string_of_int sorted))
                         (String.concat ";" (List.map string_of_int preds))))
              b.phis
          end)
        f.blocks;
      if !errors = [] then Ok cfg else Error (List.rev !errors)
    end
  end

let structure f =
  match structure_cfg f with Ok _ -> [] | Error errs -> errs

(* Definite assignment: forward must-analysis. IN(b) = ∩ OUT(p) over
   predecessors; a φ defines its target at block entry; a φ argument is a use
   at the end of the corresponding predecessor. Runs on a structurally valid
   function and its CFG. The per-block sets are dense bitsets, so the cost is
   linear in blocks + instructions plus (blocks × registers / 64) word steps
   per round. *)
let definite_assignment (f : Mir.func) cfg =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let n = Mir.num_blocks f in
  let out =
    Array.init n (fun _ ->
        let s = Bitset.create f.nregs in
        Bitset.fill s;
        s)
  in
  let gen = Array.init n (fun _ -> Bitset.create f.nregs) in
  Array.iter
    (fun (b : Mir.block) ->
      List.iter (fun (p : Mir.phi) -> Bitset.add gen.(b.label) p.dst) b.phis;
      List.iter
        (fun i -> Option.iter (Bitset.add gen.(b.label)) (Mir.def i))
        b.body)
    f.blocks;
  let entry_in = Bitset.create f.nregs in
  List.iter (Bitset.add entry_in) f.params;
  (* Overwrite [dst] with IN(l). *)
  let meet dst l =
    if l = f.entry then Bitset.blit ~src:entry_in ~dst
    else if Cfg.num_preds cfg l = 0 then Bitset.clear dst
    else begin
      Bitset.blit ~src:out.(Cfg.pred cfg l 0) ~dst;
      for i = 1 to Cfg.num_preds cfg l - 1 do
        Bitset.inter_into ~dst out.(Cfg.pred cfg l i)
      done
    end
  in
  let rpo = Cfg.reverse_postorder cfg in
  let live = Bitset.create f.nregs in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        meet live l;
        ignore (Bitset.union_into ~dst:live gen.(l));
        if not (Bitset.equal live out.(l)) then begin
          Bitset.blit ~src:live ~dst:out.(l);
          changed := true
        end)
      rpo
  done;
  (* Re-walk each block tracking point-wise definedness. *)
  Array.iter
    (fun l ->
      let b = f.blocks.(l) in
      meet live l;
      List.iter (fun (p : Mir.phi) -> Bitset.add live p.dst) b.phis;
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              if not (Bitset.mem live r) then
                add (err (loc f l) "use of %s before definite assignment"
                       (Mir.reg_name f r)))
            (Mir.uses i);
          Option.iter (Bitset.add live) (Mir.def i))
        b.body;
      List.iter
        (fun r ->
          if not (Bitset.mem live r) then
            add (err (loc f l) "terminator uses %s before definite assignment"
                   (Mir.reg_name f r)))
        (Mir.term_uses b.term);
      (* φ arguments of successors are uses at the end of this block. *)
      Cfg.iter_succs cfg l (fun s ->
          List.iter
            (fun (p : Mir.phi) ->
              List.iter
                (fun (pl, op) ->
                  if pl = l then
                    List.iter
                      (fun r ->
                        if not (Bitset.mem live r) then
                          add (err (loc f l)
                                 "phi argument %s (for %s in b%d) not definitely assigned"
                                 (Mir.reg_name f r) (Mir.reg_name f p.dst) s))
                      (Mir.operand_uses op))
                p.args)
            f.blocks.(s).phis))
    rpo;
  List.rev !errors

let strictness (f : Mir.func) =
  match structure_cfg f with
  | Ok cfg -> definite_assignment f cfg
  | Error _ -> [ err f.name "skipping strictness: structure invalid" ]

let run f =
  match structure_cfg f with
  | Ok cfg -> definite_assignment f cfg
  | Error errs -> errs

let check_exn f =
  match run f with
  | [] -> ()
  | errs ->
    let msg =
      String.concat "\n"
        (List.map (fun e -> Format.asprintf "%a" pp_error e) errs)
    in
    failwith ("IR validation failed:\n" ^ msg)
