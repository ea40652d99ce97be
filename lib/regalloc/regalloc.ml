open Support
module Cfg = Ir.Cfg
module Liveness = Analysis.Liveness
module Loops = Analysis.Loops
module Igraph = Baseline.Igraph

type spill_metric = Cost_over_degree | Plain_cost

type options = {
  registers : int;
  spill_metric : spill_metric;
  max_rounds : int;
}

let default_options =
  { registers = 8; spill_metric = Cost_over_degree; max_rounds = 16 }

type stats = {
  rounds : int;
  spilled_ranges : int;
  spill_loads : int;
  spill_stores : int;
  colors_used : int;
}

type result = {
  func : Ir.func;
  assignment : int array;
  stats : stats;
  spill_array : string;
}

exception Out_of_rounds of string

let spill_array = "$spill"

(* The spill slab must not alias an array of the source program: a function
   that already loads or stores an array literally named "$spill" would
   otherwise silently share storage between user data and spill slots (and
   the semantics checks downstream would strip a genuine user array). The
   reserved name is made fresh per function by suffixing until it collides
   with nothing the code mentions. *)
let fresh_spill_array (f : Ir.func) =
  let used = Hashtbl.create 8 in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (function
          | Ir.Load { arr; _ } | Ir.Store { arr; _ } ->
            Hashtbl.replace used arr ()
          | _ -> ())
        b.body)
    f.blocks;
  let rec pick i =
    let name =
      if i = 0 then spill_array else Printf.sprintf "%s.%d" spill_array i
    in
    if Hashtbl.mem used name then pick (i + 1) else name
  in
  pick 0

(* 10^depth block weights — the classic static estimate of dynamic
   frequency. Computed once per [run]: spill rewriting only edits block
   bodies, never labels, edges or terminator targets, so the loop nest (and
   with it every block's depth) is invariant across spill rounds. *)
let block_weights (f : Ir.func) cfg dom =
  let loops = Loops.compute cfg dom in
  Array.init (Ir.num_blocks f) (fun l ->
      10.0 ** float_of_int (Loops.depth loops l))

(* Loop-depth-weighted occurrence counts over the (possibly spill-rewritten)
   function, using the per-label weights of the original CFG. *)
let spill_costs (f : Ir.func) ~weights =
  let cost = Array.make f.nregs 0.0 in
  Array.iter
    (fun (b : Ir.block) ->
      let w = weights.(b.label) in
      let charge r = cost.(r) <- cost.(r) +. w in
      List.iter
        (fun i ->
          List.iter charge (Ir.uses i);
          Option.iter charge (Ir.def i))
        b.body;
      List.iter charge (Ir.term_uses b.term))
    f.blocks;
  cost

(* Binary min-heap over register indices — the low-degree worklist. Popping
   always yields the lowest-numbered eligible node, which is exactly the
   order the reference implementation's restart-from-0 scan produces, so
   the two variants build identical simplify stacks. *)
module Min_heap = struct
  type t = { mutable a : int array; mutable size : int }

  let create n = { a = Array.make (max 1 n) 0; size = 0 }

  let push h x =
    if h.size = Array.length h.a then begin
      let a' = Array.make (2 * h.size) 0 in
      Array.blit h.a 0 a' 0 h.size;
      h.a <- a'
    end;
    h.a.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      h.a.(p) > h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      let t = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- t;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.a.(0) in
      h.size <- h.size - 1;
      h.a.(0) <- h.a.(h.size);
      let i = ref 0 in
      let swapped = ref true in
      while !swapped do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < h.size && h.a.(l) < h.a.(!m) then m := l;
        if r < h.size && h.a.(r) < h.a.(!m) then m := r;
        if !m = !i then swapped := false
        else begin
          let t = h.a.(!m) in
          h.a.(!m) <- h.a.(!i);
          h.a.(!i) <- t;
          i := !m
        end
      done;
      Some top
    end
end

(* Spill candidate: cheapest by the chosen metric among the not-yet-removed
   nodes, pushed anyway — Briggs' optimistic coloring gives it a chance in
   select. [is_temp] marks spill temporaries, whose live ranges are already
   minimal: re-spilling them cannot reduce pressure, so they are chosen
   only when nothing else remains. *)
let spill_candidate ~options ~is_temp ~removed ~degree costs n =
  let best = ref (-1) in
  let best_m = ref infinity in
  let consider ~temps_only =
    for r = 0 to n - 1 do
      if (not removed.(r)) && is_temp r = temps_only then begin
        let m =
          match options.spill_metric with
          | Plain_cost -> costs.(r)
          | Cost_over_degree -> costs.(r) /. float_of_int (max 1 degree.(r))
        in
        if !best < 0 || m < !best_m then begin
          best_m := m;
          best := r
        end
      end
    done
  in
  consider ~temps_only:false;
  if !best < 0 then consider ~temps_only:true;
  !best

(* Optimistic select over the simplify stack (most recently removed
   first). Returns the coloring, or the registers that must be spilled. *)
let select ~k graph n stack =
  let colors = Array.make n (-1) in
  let spills = ref [] in
  List.iter
    (fun r ->
      let used = Array.make k false in
      List.iter
        (fun x -> if colors.(x) >= 0 && colors.(x) < k then used.(colors.(x)) <- true)
        (Igraph.neighbors graph r);
      let rec first c = if c >= k then None else if used.(c) then first (c + 1) else Some c in
      match first 0 with
      | Some c -> colors.(r) <- c
      | None -> spills := r :: !spills)
    stack;
  if !spills = [] then Ok colors else Error !spills

(* One simplify/select attempt, worklist form: a node enters the low-degree
   heap exactly once, when its degree first drops below k (degrees only
   ever decrease), so simplify is O(n log n + E) instead of the reference
   implementation's O(n²) restart-the-scan loop. By the heap-order argument
   above the two produce identical stacks, hence identical colorings — the
   qcheck differential in test/test_regalloc.ml pins this. *)
let try_color ~options ~is_temp (f : Ir.func) graph costs =
  let n = f.nregs in
  let k = options.registers in
  let degree = Array.init n (fun r -> Igraph.degree graph r) in
  let removed = Array.make n false in
  let stack = ref [] in
  let remaining = ref n in
  let low = Min_heap.create n in
  let queued = Array.make n false in
  let enqueue r =
    if not queued.(r) then begin
      queued.(r) <- true;
      Min_heap.push low r
    end
  in
  for r = 0 to n - 1 do
    if degree.(r) < k then enqueue r
  done;
  let remove r =
    removed.(r) <- true;
    stack := r :: !stack;
    decr remaining;
    List.iter
      (fun x ->
        if not removed.(x) then begin
          degree.(x) <- degree.(x) - 1;
          if degree.(x) < k then enqueue x
        end)
      (Igraph.neighbors graph r)
  in
  while !remaining > 0 do
    match Min_heap.pop low with
    (* A popped node is never stale: it entered the heap once and nothing
       else removes queued nodes (spill candidates are picked only when the
       heap is empty, i.e. when every queued node has been processed). *)
    | Some r -> remove r
    | None ->
      remove (spill_candidate ~options ~is_temp ~removed ~degree costs n)
  done;
  select ~k graph n !stack

(* The pre-worklist simplify loop, kept verbatim as the oracle for the
   differential test: restart the full 0..n-1 scan after every removal. *)
let try_color_reference ~options ~is_temp (f : Ir.func) graph costs =
  let n = f.nregs in
  let k = options.registers in
  let degree = Array.init n (fun r -> Igraph.degree graph r) in
  let removed = Array.make n false in
  let stack = ref [] in
  let remaining = ref n in
  let remove r =
    removed.(r) <- true;
    stack := r :: !stack;
    decr remaining;
    List.iter
      (fun x -> if not removed.(x) then degree.(x) <- degree.(x) - 1)
      (Igraph.neighbors graph r)
  in
  while !remaining > 0 do
    let found = ref false in
    for r = 0 to n - 1 do
      if (not removed.(r)) && degree.(r) < k && not !found then begin
        found := true;
        remove r
      end
    done;
    if not !found then
      remove (spill_candidate ~options ~is_temp ~removed ~degree costs n)
  done;
  select ~k graph n !stack

(* Rewrite spilled registers: every definition goes to a fresh temporary
   followed by a store to the register's slot; every use becomes a load into
   a fresh temporary. Parameters are stored at function entry. *)
let insert_spill_code (f : Ir.func) spills ~spill_array ~slot_of ~loads ~stores =
  let next = ref f.nregs in
  let prefixes = Vec.create () in
  let fresh prefix =
    let r = !next in
    incr next;
    Vec.push prefixes prefix;
    r
  in
  let is_spilled r = Imap.mem r spills in
  let slot r = Ir.Const (Ir.Int (slot_of r)) in
  let rewrite_instr i =
    (* Loads for spilled uses. *)
    let pre = ref [] in
    let subst = Hashtbl.create 4 in
    List.iter
      (fun r ->
        if is_spilled r && not (Hashtbl.mem subst r) then begin
          let t = fresh "ld" in
          Hashtbl.add subst r t;
          incr loads;
          pre := Ir.Load { dst = t; arr = spill_array; idx = slot r } :: !pre
        end)
      (Ir.uses i);
    let i =
      Ir.map_instr_uses
        (fun r ->
          match Hashtbl.find_opt subst r with
          | Some t -> Ir.Reg t
          | None -> Ir.Reg r)
        i
    in
    (* Store for a spilled definition. *)
    match Ir.def i with
    | Some d when is_spilled d ->
      let t = fresh "st" in
      let i = Ir.map_instr_def (fun _ -> t) i in
      incr stores;
      List.rev !pre
      @ [ i; Ir.Store { arr = spill_array; idx = slot d; src = Ir.Reg t } ]
    | _ -> List.rev !pre @ [ i ]
  in
  let rewrite_term term pre_acc =
    let subst = Hashtbl.create 4 in
    List.iter
      (fun r ->
        if is_spilled r && not (Hashtbl.mem subst r) then begin
          let t = fresh "ld" in
          Hashtbl.add subst r t;
          incr loads;
          pre_acc := Ir.Load { dst = t; arr = spill_array; idx = slot r } :: !pre_acc
        end)
      (Ir.term_uses term);
    Ir.map_term_uses
      (fun r ->
        match Hashtbl.find_opt subst r with
        | Some t -> Ir.Reg t
        | None -> Ir.Reg r)
      term
  in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        assert (b.phis = []);
        let body = List.concat_map rewrite_instr b.body in
        let pre_term = ref [] in
        let term = rewrite_term b.term pre_term in
        let body = body @ List.rev !pre_term in
        let body =
          if b.label = f.entry then begin
            (* Spilled parameters are stored on entry. *)
            let stores_ =
              List.filter_map
                (fun p ->
                  if is_spilled p then begin
                    incr stores;
                    Some (Ir.Store { arr = spill_array; idx = slot p; src = Ir.Reg p })
                  end
                  else None)
                f.params
            in
            stores_ @ body
          end
          else body
        in
        { b with body; term })
      f.blocks
  in
  (* Spill temporaries print as "ld<N>" and "st<N>". *)
  let names =
    Ir.Names.temps f.names ~first:f.nregs ~numbered:true (Vec.to_array prefixes)
  in
  { f with blocks; nregs = !next; names }

let rewrite_to_colors (f : Ir.func) colors =
  let ncolors = 1 + Array.fold_left max (-1) colors in
  let color r = colors.(r) in
  (* Colours print as "R<c>". *)
  let names =
    Ir.Names.temps Ir.Names.empty ~first:0 ~numbered:true
      (Array.make (max 1 ncolors) "R")
  in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        let body =
          List.filter_map
            (fun i ->
              let i =
                Ir.map_instr_def color
                  (Ir.map_instr_uses (fun r -> Ir.Reg (color r)) i)
              in
              (* Allocation may map a copy's ends to one register; drop it. *)
              match i with
              | Ir.Copy { dst; src = Ir.Reg s } when dst = s -> None
              | _ -> Some i)
            b.body
        in
        let term = Ir.map_term_uses (fun r -> Ir.Reg (color r)) b.term in
        { b with body; term })
      f.blocks
  in
  ( { f with blocks; params = List.map color f.params; nregs = max 1 ncolors; names },
    ncolors )

let run ?(options = default_options) ?facts (f0 : Ir.func) =
  if options.registers < 2 then invalid_arg "Regalloc: need at least 2 registers";
  Array.iter
    (fun (b : Ir.block) ->
      if b.phis <> [] then invalid_arg "Regalloc: function has phi-nodes")
    f0.blocks;
  let loads = ref 0 and stores = ref 0 in
  let spilled_total = ref 0 in
  let next_slot = ref 0 in
  let spill_array = fresh_spill_array f0 in
  (* One CFG and loop depths once per run: rounds only rewrite block
     bodies, so every round's function has the input's graph. *)
  let facts = Analysis.Facts.or_build facts f0 in
  let cfg = facts.cfg in
  let weights = block_weights f0 cfg (Analysis.Facts.dominance f0 facts) in
  (* Every round's liveness matrices come from the domain's arena. *)
  let scratch = Scratch.domain () in
  let rec round f i =
    if i > options.max_rounds then
      raise (Out_of_rounds (Printf.sprintf "%s: no %d-coloring after %d rounds"
               f0.Ir.name options.registers options.max_rounds));
    let live = Liveness.compute_into ~scratch f cfg in
    let graph = Igraph.build_full f cfg live in
    Liveness.release scratch live;
    let costs = spill_costs f ~weights in
    match try_color ~options ~is_temp:(fun r -> r >= f0.Ir.nregs) f graph costs with
    | Ok colors -> (f, colors, i)
    | Error spills ->
      spilled_total := !spilled_total + List.length spills;
      let spill_map =
        List.fold_left
          (fun acc r ->
            let s = !next_slot in
            incr next_slot;
            Imap.add r s acc)
          Imap.empty spills
      in
      let slot_of r = Imap.find r spill_map in
      let f = insert_spill_code f spill_map ~spill_array ~slot_of ~loads ~stores in
      round f (i + 1)
  in
  let f, colors, rounds = round f0 1 in
  let func, colors_used = rewrite_to_colors f colors in
  {
    func;
    assignment = colors;
    stats =
      {
        rounds;
        spilled_ranges = !spilled_total;
        spill_loads = !loads;
        spill_stores = !stores;
        colors_used;
      };
    spill_array;
  }
