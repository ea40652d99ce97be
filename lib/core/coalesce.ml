open Support
module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance
module Liveness = Analysis.Liveness
module DF = Dominance_forest

type options = {
  use_filters : bool;
  victim_heuristic : bool;
}

let default_options = { use_filters = true; victim_heuristic = true }

type stats = {
  classes : int;
  class_members : int;
  filter_refusals : int;
  const_args : int;
  rename_detached : int;
  forest_detached : int;
  local_pairs : int;
  local_detached : int;
  copies_inserted : int;
  temps_inserted : int;
  aux_memory_bytes : int;
}

(* Result of the analysis half: a renaming of registers to class names plus
   the counters that end up in [stats]. *)
type analysis = {
  rename : int array;
  final_classes : Ir.reg list list;
  a_classes : int;
  a_members : int;
  a_filter_refusals : int;
  a_const_args : int;
  a_rename_detached : int;
  a_forest_detached : int;
  a_local_pairs : int;
  a_local_detached : int;
  a_memory : int;
}

(* [analyze] takes the post-split facts from its caller ([run] shares the
   CFG with [rewrite]) and draws every other analysis buffer from
   [scratch], so a batch driver compiling many functions on one domain
   reuses the same liveness vectors throughout. A carried dominator tree
   is used as it is; without one the numberings come from [scratch] too,
   and go back to it at the end. *)
let analyze ~options ~scratch ~(facts : Analysis.Facts.t) ?obs (f : Ir.func) :
    analysis =
  let oincr c = Option.iter (fun o -> Obs.incr o c) obs in
  let oadd c n = Option.iter (fun o -> Obs.add o c n) obs in
  let cfg = facts.cfg in
  let dom =
    match facts.dom with
    | Some dom -> dom
    | None -> Dominance.compute_into ~scratch f cfg
  in
  let live = Liveness.compute_into ~scratch ?obs f cfg in
  let sites = Interference.def_sites f in
  let site r =
    match sites.(r) with
    | Some s -> s
    | None -> invalid_arg "Coalesce: phi references an undefined register"
  in
  let is_phi_dst = Array.make f.nregs false in
  Ir.iter_phis f (fun _ p -> is_phi_dst.(p.dst) <- true);
  (* Copy-cost estimate used by the victim rule: how many copies would
     detaching this name cause? One per argument position it occupies, and
     one per φ-edge for each φ it is the target of. *)
  let cost = Scratch.acquire_int_array scratch f.nregs 0 in
  Ir.iter_phis f (fun _ p ->
      cost.(p.dst) <- cost.(p.dst) + List.length p.args;
      List.iter
        (fun (_, op) ->
          List.iter (fun a -> cost.(a) <- cost.(a) + 1) (Ir.operand_uses op))
        p.args);
  let uf = Union_find.create f.nregs in
  let filter_refusals = ref 0 in
  let const_args = ref 0 in
  (* Per-φ "argument defined in this block already" marks, as a stamp array
     over blocks: [seen_stamp.(blk) = current φ's stamp] replaces a per-φ
     hash table (filter 5 below). *)
  let nb = Ir.num_blocks f in
  let seen_stamp = Scratch.acquire_int_array scratch nb (-1) in
  let phi_stamp = ref 0 in
  (* Phase 1 — build initial live ranges (Section 3.1): union φ targets with
     arguments, refusing positions the five filters prove interfering. *)
  Array.iter
    (fun l ->
      let b = f.blocks.(l) in
      let processed_dsts = ref [] in
      List.iter
        (fun (p : Ir.phi) ->
          let d = p.dst in
          (* Defining blocks of arguments already unioned into this φ (for
             filter 5: two arguments defined in the same block are both live
             at its end, hence interfere). The target's own block is NOT
             seeded: an argument defined in the φ's block — the classic
             loop-increment i2 := i1 + 1 feeding i1's φ — usually does not
             interfere with the target, and the local pass checks it. *)
          incr phi_stamp;
          let stamp = !phi_stamp in
          List.iter
            (fun (_pl, op) ->
              match op with
              | Ir.Const _ ->
                incr const_args;
                oincr Obs.Const_phi_args
              | Ir.Reg a ->
                if Union_find.same uf a d then
                  seen_stamp.((site a).Interference.block) <- stamp
                else begin
                  let sa = site a in
                  (* The five filters, in the paper's order; the first to
                     fire names the refusal (the || chain this replaces
                     short-circuited the same way). *)
                  let refusal =
                    if not options.use_filters then None
                    else if
                      (* 1. the argument flows past the φ into b itself *)
                      Liveness.live_in_mem live l a
                    then Some Obs.Filter_arg_live_into_block
                    else if
                      (* 2. the target is live out of the argument's
                         defining block *)
                      Liveness.live_out_mem live sa.Interference.block d
                    then Some Obs.Filter_target_live_out
                    else if
                      (* 3. argument is a φ whose block the target is live
                         into *)
                      is_phi_dst.(a)
                      && Liveness.live_in_mem live sa.Interference.block d
                    then Some Obs.Filter_phi_arg_live_in
                    else if
                      (* 4. argument already joined another φ of this
                         block *)
                      List.exists
                        (fun d' -> Union_find.same uf a d')
                        !processed_dsts
                    then Some Obs.Filter_sibling_phi
                    else if
                      (* 5. two arguments defined in the same block *)
                      seen_stamp.(sa.Interference.block) = stamp
                    then Some Obs.Filter_same_block_args
                    else None
                  in
                  match refusal with
                  | Some which ->
                    incr filter_refusals;
                    oincr which
                  | None ->
                    ignore (Union_find.union uf d a);
                    oincr Obs.Phi_args_unioned;
                    seen_stamp.(sa.Interference.block) <- stamp
                end)
            p.args;
          processed_dsts := d :: !processed_dsts)
        b.phis)
    (Cfg.reverse_postorder cfg);
  Scratch.release_int_array scratch seen_stamp;
  (* Phase 2 — materialize the congruence classes. *)
  let groups = Union_find.groups uf in
  let detached = Array.make f.nregs false in
  (* Phase 2.5 — rename invariant: a block may contribute at most one φ
     target per class, otherwise rewriting both φs to the class name would
     define it twice in parallel (the interference renaming exposes,
     Section 3.6.1). *)
  let rename_detached = ref 0 in
  let in_group = Array.make f.nregs false in
  List.iter
    (fun (_, members) -> List.iter (fun m -> in_group.(m) <- true) members)
    groups;
  (* [seen_root.(root) = label] stamps a class as already represented by a
     φ target in this block — a dense stand-in for a per-block table. *)
  let seen_root = Scratch.acquire_int_array scratch f.nregs (-1) in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          if in_group.(p.dst) then begin
            let root = Union_find.find uf p.dst in
            if seen_root.(root) = b.label then begin
              detached.(p.dst) <- true;
              incr rename_detached;
              oincr Obs.Rename_detaches
            end
            else seen_root.(root) <- b.label
          end)
        b.phis)
    f.blocks;
  Scratch.release_int_array scratch seen_root;
  (* Phase 3 — dominance forests and the Figure-2 walk. *)
  let forest_detached = ref 0 in
  let local_pairs = ref [] in
  let n_local_pairs = ref 0 in
  let total_forest_nodes = ref 0 in
  let definite (pvar : Ir.reg) (c : DF.node) = Liveness.live_out_mem live c.block pvar in
  let potential (p : DF.node) (c : DF.node) =
    definite p.var c
    || Liveness.live_in_mem live c.block p.var
    || p.block = c.block
  in
  (* Every class's forest at once: one preorder sort for the function. *)
  let forests =
    DF.build_all dom
      (Array.of_list
         (List.map
            (fun (_, members) ->
              List.filter_map
                (fun m ->
                  if detached.(m) then None
                  else
                    let s = site m in
                    Some (m, s.Interference.block, s.Interference.index))
                members)
            groups))
  in
  Array.iter
    (fun forest ->
      total_forest_nodes := !total_forest_nodes + DF.size forest;
      let rec process_node (node : DF.node) =
        let queue = ref node.children in
        let rec drain () =
          match !queue with
          | [] -> ()
          | c :: rest ->
            queue := rest;
            if detached.(node.var) then begin
              (* The parent fell earlier: the child roots its own subtree,
                 and the remaining children must still be drained. *)
              process_node c;
              drain ()
            end
            else if begin
              oincr Obs.Forest_interference_checks;
              definite node.var c
            end
            then begin
              let others_clean =
                not
                  (List.exists
                     (fun c' ->
                       c' != c && (not detached.(c'.var)) && potential node c')
                     node.children)
              in
              if
                options.victim_heuristic && others_clean
                && cost.(c.var) < cost.(node.var)
              then begin
                detached.(c.var) <- true;
                incr forest_detached;
                oincr Obs.Forest_detaches;
                (* c's children become node's children (Figure 2). *)
                queue := c.children @ !queue;
                node.children <-
                  List.filter (fun x -> x != c) node.children @ c.children
              end
              else begin
                detached.(node.var) <- true;
                incr forest_detached;
                oincr Obs.Forest_detaches;
                process_node c
              end;
              drain ()
            end
            else begin
              if Liveness.live_in_mem live c.block node.var || node.block = c.block
              then begin
                local_pairs := (node.var, c) :: !local_pairs;
                incr n_local_pairs;
                oincr Obs.Local_pairs_deferred
              end;
              process_node c;
              drain ()
            end
        in
        drain ()
      in
      List.iter process_node forest)
    forests;
  (* Phase 4 — local interferences (Section 3.4). Whether the parent is
     live just after the child's definition depends only on liveness, so
     every deferred pair is answered up front, with one backward walk per
     block that has pairs; the detach decisions below then consult the
     answers. *)
  let local_detached = ref 0 in
  (* Victim choice here is constrained by Lemma 3.1: interference facts
     transfer only along chains of still-attached members, so removing the
     child is legitimate only when it has no attached forest descendants
     left to stand between the parent and deeper members — i.e. when it is
     an (effective) leaf. Otherwise the parent must go: any interference it
     had with a deeper member implied this very (parent, child) pair.
     Pairs are processed in discovery (DFS) order so ancestors fall before
     their descendants' pairs are consulted. By the same lemma a pair whose
     child the forest walk has since detached is still answered while the
     child has attached descendants: the parent's interference with them
     implies this pair, and no other check covers it. The parent goes. *)
  let rec has_attached_descendant (n : DF.node) =
    List.exists
      (fun (c : DF.node) -> (not detached.(c.var)) || has_attached_descendant c)
      n.children
  in
  let pairs = Array.of_list (List.rev !local_pairs) in
  let local_buf = Scratch.acquire_bitset scratch f.nregs in
  let live_after =
    Interference.live_just_after_all ~into:local_buf f live
      (Array.map
         (fun (pvar, (c : DF.node)) ->
           (pvar, { Interference.block = c.block; index = c.def_index }))
         pairs)
  in
  Scratch.release_bitset scratch local_buf;
  Array.iteri
    (fun k (pvar, (c : DF.node)) ->
      if
        (not detached.(pvar))
        && ((not detached.(c.var)) || has_attached_descendant c)
      then begin
        oincr Obs.Local_interference_checks;
        if live_after.(k) then begin
          let victim =
            if
              options.victim_heuristic
              && cost.(c.var) < cost.(pvar)
              && not (has_attached_descendant c)
            then c.var
            else pvar
          in
          detached.(victim) <- true;
          incr local_detached;
          oincr Obs.Local_detaches
        end
      end)
    pairs;
  (* Phase 5 — renaming (Section 3.5): one name per class. *)
  let rename = Array.init f.nregs (fun r -> r) in
  let final_classes = ref [] in
  let n_classes = ref 0 in
  let n_members = ref 0 in
  List.iter
    (fun (_, members) ->
      match List.filter (fun m -> not detached.(m)) members with
      | [] | [ _ ] -> ()
      | leader :: _ as attached ->
        incr n_classes;
        n_members := !n_members + List.length attached;
        final_classes := attached :: !final_classes;
        List.iter (fun m -> rename.(m) <- leader) attached)
    groups;
  oadd Obs.Forest_nodes_visited !total_forest_nodes;
  oadd Obs.Congruence_classes !n_classes;
  oadd Obs.Congruence_class_members !n_members;
  let memory =
    Liveness.memory_bytes live
    + (16 * f.nregs) (* union-find parent + rank *)
    + (40 * !total_forest_nodes)
    + (24 * !n_local_pairs)
  in
  Scratch.release_int_array scratch cost;
  Liveness.release scratch live;
  if Option.is_none facts.dom then Dominance.release scratch dom;
  {
    rename;
    final_classes = !final_classes;
    a_classes = !n_classes;
    a_members = !n_members;
    a_filter_refusals = !filter_refusals;
    a_const_args = !const_args;
    a_rename_detached = !rename_detached;
    a_forest_detached = !forest_detached;
    a_local_pairs = !n_local_pairs;
    a_local_detached = !local_detached;
    a_memory = memory;
  }

(* [List.map] that returns [l] itself when [f] returns every element
   unchanged, and otherwise shares the longest unchanged tail. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: tl ->
    let x' = f x in
    let tl' = map_shared f tl in
    if x' == x && tl' == tl then l else x' :: tl'

let rewrite ~cfg ?obs (f : Ir.func) (a : analysis) =
  let rename r = a.rename.(r) in
  (* Renaming keeps every operand, instruction and terminator it leaves
     unchanged, so the output shares them with the SSA input (and a
     cached report holds them once). *)
  let rename_op op =
    match op with
    | Ir.Reg r ->
      let r' = rename r in
      if r' = r then op else Ir.Reg r'
    | Ir.Const _ -> op
  in
  let rename_instr (i : Ir.instr) =
    match i with
    | Copy { dst; src } ->
      let dst' = rename dst and src' = rename_op src in
      if dst' = dst && src' == src then i else Copy { dst = dst'; src = src' }
    | Unop { op; dst; src } ->
      let dst' = rename dst and src' = rename_op src in
      if dst' = dst && src' == src then i
      else Unop { op; dst = dst'; src = src' }
    | Binop { op; dst; l; r } ->
      let dst' = rename dst and l' = rename_op l and r' = rename_op r in
      if dst' = dst && l' == l && r' == r then i
      else Binop { op; dst = dst'; l = l'; r = r' }
    | Load { dst; arr; idx } ->
      let dst' = rename dst and idx' = rename_op idx in
      if dst' = dst && idx' == idx then i
      else Load { dst = dst'; arr; idx = idx' }
    | Store { arr; idx; src } ->
      let idx' = rename_op idx and src' = rename_op src in
      if idx' == idx && src' == src then i
      else Store { arr; idx = idx'; src = src' }
  in
  let rename_term (t : Ir.terminator) =
    match t with
    | Jump _ | Return None -> t
    | Branch { cond; if_true; if_false } ->
      let cond' = rename_op cond in
      if cond' == cond then t else Branch { cond = cond'; if_true; if_false }
    | Return (Some op) ->
      let op' = rename_op op in
      if op' == op then t else Return (Some op')
  in
  let next = ref f.nregs in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  (* The Waiting lists (Section 3.6): pending copies per edge. With critical
     edges split, each edge either leaves a single-successor block (place at
     its end) or enters a single-predecessor block (place at its start). *)
  let at_end : Ssa.Parallel_copy.move list array = Array.make (Ir.num_blocks f) [] in
  let at_start : Ssa.Parallel_copy.move list array = Array.make (Ir.num_blocks f) [] in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun (p : Ir.phi) ->
            let d = rename p.dst in
            List.iter
              (fun (pl, op) ->
                let src = rename_op op in
                if src <> Ir.Reg d then begin
                  let move = { Ssa.Parallel_copy.dst = d; src } in
                  if Cfg.num_succs cfg pl = 1 then
                    at_end.(pl) <- move :: at_end.(pl)
                  else begin
                    (* pl branches; the edge is non-critical, so b has a
                       single predecessor and the copy can sit at b's top. *)
                    assert (
                      Cfg.num_preds cfg b.label = 1
                      && Cfg.pred cfg b.label 0 = pl);
                    at_start.(b.label) <- move :: at_start.(b.label)
                  end
                end
                else
                  (* Coalescing made this φ-edge position a no-op — the
                     copy the Standard route would have emitted. *)
                  Option.iter
                    (fun o -> Obs.incr o Obs.Copies_eliminated)
                    obs)
              p.args)
          b.phis)
    f.blocks;
  let copies = ref 0 in
  let seq moves =
    match moves with
    | [] -> []
    | _ ->
      let instrs = Ssa.Parallel_copy.sequentialize ?obs ~fresh (List.rev moves) in
      copies := !copies + List.length instrs;
      instrs
  in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        let body = map_shared rename_instr b.body in
        (* End-of-block copies are sequentialized before start-of-block
           ones: the order fixes the numbers of parallel-copy temporaries. *)
        let last = seq at_end.(b.label) in
        let first = seq at_start.(b.label) in
        let body = match last with [] -> first @ body | _ -> first @ body @ last in
        let term = rename_term b.term in
        match b.phis with
        | [] when body == b.body && term == b.term -> b
        | _ -> { b with phis = []; body; term })
      f.blocks
  in
  let params = List.map rename f.params in
  Option.iter (fun o -> Obs.add o Obs.Copies_inserted !copies) obs;
  let temps = !next - f.nregs in
  (* Parallel-copy temporaries print as "pcopy<N>". *)
  let names =
    Ir.Names.temps f.names ~first:f.nregs ~numbered:true
      (Array.make temps "pcopy")
  in
  ({ f with params; blocks; nregs = !next; names }, !copies, temps)

let run ?(options = default_options) ?(scratch = Scratch.domain ()) ?facts ?obs
    (f : Ir.func) =
  let f, facts =
    Analysis.Facts.split_critical_edges ?obs (Analysis.Facts.or_build facts f) f
  in
  let a = analyze ~options ~scratch ~facts ?obs f in
  let f', copies, temps = rewrite ~cfg:facts.cfg ?obs f a in
  ( f',
    {
      classes = a.a_classes;
      class_members = a.a_members;
      filter_refusals = a.a_filter_refusals;
      const_args = a.a_const_args;
      rename_detached = a.a_rename_detached;
      forest_detached = a.a_forest_detached;
      local_pairs = a.a_local_pairs;
      local_detached = a.a_local_detached;
      copies_inserted = copies;
      temps_inserted = temps;
      aux_memory_bytes = a.a_memory;
    } )

let run_exn ?options ?scratch ?facts ?obs f =
  fst (run ?options ?scratch ?facts ?obs f)

let congruence_classes ?(options = default_options) (f : Ir.func) =
  let f, facts =
    Analysis.Facts.split_critical_edges (Analysis.Facts.of_func f) f
  in
  (analyze ~options ~scratch:(Scratch.domain ()) ~facts f).final_classes
