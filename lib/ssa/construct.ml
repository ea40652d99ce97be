open Support
module Cfg = Ir.Cfg
module Dominance = Analysis.Dominance
module Liveness = Analysis.Liveness

type pruning = Minimal | Semi_pruned | Pruned

type stats = {
  phis_inserted : int;
  copies_folded : int;
}

(* A φ being assembled during renaming: the target SSA name plus the
   argument for each incoming edge, filled in as predecessors are visited. *)
type proto_phi = {
  var : Ir.reg; (* original variable *)
  mutable ssa_dst : Ir.reg;
  mutable filled : (Ir.label * Ir.operand) list;
}

let run_facts ?(pruning = Pruned) ?(fold_copies = true) ?obs
    (facts : Analysis.Facts.t) (f : Ir.func) =
  let cfg = facts.cfg in
  let dom = Analysis.Facts.dominance f facts in
  let n = Ir.num_blocks f in
  (* Definition sites per original variable. Parameters count as definitions
     in the entry block. *)
  let def_blocks = Array.make f.nregs Iset.empty in
  let reachable_defs = ref 0 in
  List.iter
    (fun p -> def_blocks.(p) <- Iset.add f.entry def_blocks.(p))
    f.params;
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun i ->
            Option.iter
              (fun d ->
                incr reachable_defs;
                def_blocks.(d) <- Iset.add b.label def_blocks.(d))
              (Ir.def i))
          b.body)
    f.blocks;
  (* Pruning predicate: does variable v need a φ at block l? Pruned
     placement asks liveness: the handed facts' solve, read and left to
     its owner, or a solve of its own, whose rows come from the domain's
     scratch arena and go back to it once the φs are placed. *)
  let scratch = Scratch.domain () in
  let needs_phi, own_live =
    match pruning with
    | Minimal -> ((fun _v _l -> true), None)
    | Semi_pruned ->
      (* Non-local names: upward-exposed in some block. [killed.(u) = l]
         stamps u as defined earlier in block l — a dense stand-in for a
         per-block kill table. *)
      let nonlocal = Array.make f.nregs false in
      let killed = Array.make f.nregs (-1) in
      Array.iter
        (fun (b : Ir.block) ->
          let l = b.label in
          List.iter
            (fun i ->
              List.iter
                (fun u -> if killed.(u) <> l then nonlocal.(u) <- true)
                (Ir.uses i);
              Option.iter (fun d -> killed.(d) <- l) (Ir.def i))
            b.body;
          List.iter
            (fun u -> if killed.(u) <> l then nonlocal.(u) <- true)
            (Ir.term_uses b.term))
        f.blocks;
      ((fun v _l -> nonlocal.(v)), None)
    | Pruned -> (
      match facts.live with
      | Some live ->
        Option.iter
          (fun o ->
            Obs.add o Obs.Liveness_worklist_pops (Liveness.worklist_pops live))
          obs;
        ((fun v l -> Liveness.live_in_mem live l v), None)
      | None ->
        let live = Liveness.compute_into ~scratch ?obs f cfg in
        ((fun v l -> Liveness.live_in_mem live l v), Some live))
  in
  (* Iterated dominance frontier: standard worklist per variable. The
     pending φs live in a label-indexed array — labels are dense ids.
     [has_phi.(d) = v] and [in_work.(d) = v] stamp block [d] for variable
     [v], so two block-indexed arrays serve every variable and the loop
     costs O(def sites + frontier visits), not O(blocks) per variable. *)
  let phi_at : proto_phi list ref array = Array.init n (fun _ -> ref []) in
  let phis_of l = phi_at.(l) in
  let phis_inserted = ref 0 in
  let has_phi = Array.make n (-1) in
  let in_work = Array.make n (-1) in
  for v = 0 to f.nregs - 1 do
    if not (Iset.is_empty def_blocks.(v)) then begin
      let work = ref [] in
      Iset.iter
        (fun l ->
          if Cfg.reachable cfg l then begin
            in_work.(l) <- v;
            work := l :: !work
          end)
        def_blocks.(v);
      while !work <> [] do
        match !work with
        | [] -> ()
        | l :: rest ->
          work := rest;
          List.iter
            (fun d ->
              if has_phi.(d) <> v && needs_phi v d then begin
                has_phi.(d) <- v;
                incr phis_inserted;
                let r = phis_of d in
                r := { var = v; ssa_dst = -1; filled = [] } :: !r;
                if in_work.(d) <> v then begin
                  in_work.(d) <- v;
                  work := d :: !work
                end
              end)
            (Dominance.frontier dom l)
      done
    end
  done;
  Option.iter (Liveness.release scratch) own_live;
  (* Renaming: dominator-tree walk with a stack of current operands per
     original variable. Copy folding pushes the source operand instead of
     minting a new name. Each new register records its origin and version
     number; its printed name is formatted only if someone prints it.
     Parameters, φs and reachable definitions bound the names minted. *)
  let bound = List.length f.params + !phis_inserted + !reachable_defs in
  let origin_of = Array.make bound 0 in
  let version_of = Array.make bound 0 in
  let next = ref 0 in
  let version = Array.make f.nregs 0 in
  let fresh_name v =
    let r = !next in
    incr next;
    origin_of.(r) <- v;
    version_of.(r) <- version.(v);
    version.(v) <- version.(v) + 1;
    r
  in
  let stacks : Ir.operand list array = Array.make f.nregs [] in
  let current v =
    match stacks.(v) with
    | top :: _ -> top
    | [] ->
      (* Only reachable for dead φ arguments of non-pruned forms on paths
         where the variable is not defined; the φ result is dead there, so
         any placeholder is safe. *)
      Ir.Const (Ir.Int 0)
  in
  let copies_folded = ref 0 in
  (* New parameters first, so their SSA names are stable. *)
  let new_params =
    List.map
      (fun p ->
        let sn = fresh_name p in
        stacks.(p) <- [ Ir.Reg sn ] ;
        sn)
      f.params
  in
  let new_body = Array.make n [] in
  let new_term = Array.make n (Ir.Return None) in
  let rec rename (l : Ir.label) =
    let b = f.blocks.(l) in
    let pushed = ref [] in
    let push v op =
      stacks.(v) <- op :: stacks.(v);
      pushed := v :: !pushed
    in
    List.iter
      (fun (pp : proto_phi) ->
        let sn = fresh_name pp.var in
        pp.ssa_dst <- sn;
        push pp.var (Ir.Reg sn))
      !(phis_of l);
    let use (op : Ir.operand) =
      match op with Ir.Reg r -> current r | Ir.Const _ -> op
    in
    let def d =
      let sn = fresh_name d in
      push d (Ir.Reg sn);
      sn
    in
    (* Each instruction is rebuilt once, uses and definition together; the
       uses are read before the definition is pushed. Tail-mod-cons keeps
       a long block off the stack. *)
    let[@tail_mod_cons] rec body = function
      | [] -> []
      | (i : Ir.instr) :: rest -> (
        match i with
        | Copy { dst; src } when fold_copies ->
          incr copies_folded;
          push dst (use src);
          body rest
        | Copy { dst; src } ->
          let src = use src in
          let i = Ir.Copy { dst = def dst; src } in
          i :: body rest
        | Unop { op; dst; src } ->
          let src = use src in
          let i = Ir.Unop { op; dst = def dst; src } in
          i :: body rest
        | Binop { op; dst; l; r } ->
          let l = use l in
          let r = use r in
          let i = Ir.Binop { op; dst = def dst; l; r } in
          i :: body rest
        | Load { dst; arr; idx } ->
          let idx = use idx in
          let i = Ir.Load { dst = def dst; arr; idx } in
          i :: body rest
        | Store { arr; idx; src } ->
          let idx = use idx in
          let src = use src in
          let i = Ir.Store { arr; idx; src } in
          i :: body rest)
    in
    new_body.(l) <- body b.body;
    new_term.(l) <- Ir.map_term_uses (fun r -> current r) b.term;
    (* Fill φ arguments of CFG successors for the edge from this block. *)
    Cfg.iter_succs cfg l (fun s ->
        List.iter
          (fun (pp : proto_phi) -> pp.filled <- (l, current pp.var) :: pp.filled)
          !(phis_of s));
    List.iter rename (Dominance.children dom l);
    List.iter
      (fun v ->
        match stacks.(v) with
        | _ :: rest -> stacks.(v) <- rest
        | [] -> assert false)
      !pushed
  in
  rename f.entry;
  Option.iter
    (fun o ->
      Obs.add o Obs.Phis_inserted !phis_inserted;
      Obs.add o Obs.Copies_folded !copies_folded)
    obs;
  let blocks =
    Array.init n (fun l ->
        let b = f.blocks.(l) in
        if not (Cfg.reachable cfg l) then
          (* Unreachable blocks are dropped to a trivial return; they carry
             stale register names otherwise. *)
          { b with phis = []; body = []; term = Ir.Return None }
        else begin
          let phis =
            List.rev_map
              (fun (pp : proto_phi) ->
                {
                  Ir.dst = pp.ssa_dst;
                  (* Labels are distinct within a φ. *)
                  args =
                    List.sort (fun (a, _) (b, _) -> Int.compare a b) pp.filled;
                })
              !(phis_of l)
          in
          { b with phis; body = new_body.(l); term = new_term.(l) }
        end)
  in
  ( {
      f with
      params = new_params;
      blocks;
      nregs = !next;
      names =
        Ir.Names.versions ~base:f.names ~origin:origin_of ~version:version_of
          ~count:!next;
    },
    { phis_inserted = !phis_inserted; copies_folded = !copies_folded },
    { facts with dom = Some dom; live = None } )

let run ?pruning ?fold_copies ?obs f =
  let ssa, stats, _ =
    run_facts ?pruning ?fold_copies ?obs (Analysis.Facts.of_func f) f
  in
  (ssa, stats)

let run_exn ?pruning ?fold_copies ?obs f = fst (run ?pruning ?fold_copies ?obs f)
