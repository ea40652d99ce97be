open Support
module Cfg = Ir.Cfg
module Liveness = Analysis.Liveness

type t = {
  matrix : Bit_matrix.t;
  index : int array option;  (* reg -> compact index; None = identity (full) *)
  nodes : int;
  mutable edges : int;
  mapping_bytes : int;
}

let idx t r =
  match t.index with
  | None -> r
  | Some map ->
    let i = map.(r) in
    if i < 0 then
      invalid_arg "Igraph: register is not a member of the restricted graph";
    i

(* Chaitin's backward walk: at each definition, the target interferes with
   everything currently live, except that a copy's source is taken out of
   the live set first so the copy itself never creates the edge that would
   forbid coalescing it. [def d s] records the interferences of [d] with
   every other register of [s]. *)
let scan (f : Ir.func) cfg live ~def =
  let set = Bitset.create f.nregs in
  (* Parameters are parallel definitions at the entry: each interferes with
     whatever is live into the entry and with its sibling parameters, which
     [set] holds until the first block's live-out replaces them. *)
  let entry_in = Liveness.live_in live (Cfg.entry cfg) in
  List.iter (Bitset.add set) f.params;
  List.iter
    (fun p ->
      def p entry_in;
      def p set)
    f.params;
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then begin
        if b.phis <> [] then
          invalid_arg "Igraph: function still contains phi-nodes";
        Bitset.blit ~src:(Liveness.live_out live b.label) ~dst:set;
        List.iter (Bitset.add set) (Ir.term_uses b.term);
        List.iter
          (fun instr ->
            (match Ir.def instr with
            | Some d ->
              (match instr with
              | Ir.Copy { src = Ir.Reg s; _ } -> Bitset.remove set s
              | _ -> ());
              def d set;
              Bitset.remove set d
            | None -> ());
            List.iter (Bitset.add set) (Ir.uses instr))
          (List.rev b.body)
      end)
    f.blocks

let build_full ?reuse (f : Ir.func) cfg live =
  let t =
    {
      matrix = Bit_matrix.create ?reuse:(Option.map (fun g -> g.matrix) reuse) f.nregs;
      index = None;
      nodes = f.nregs;
      edges = 0;
      mapping_bytes = 0;
    }
  in
  scan f cfg live ~def:(fun d set ->
      t.edges <- t.edges + Bit_matrix.union_set t.matrix d set);
  t

let build_restricted ?reuse (f : Ir.func) cfg live ~members =
  let map = Array.make f.nregs (-1) in
  let n = ref 0 in
  List.iter
    (fun r ->
      if map.(r) < 0 then begin
        map.(r) <- !n;
        incr n
      end)
    members;
  let t =
    {
      matrix = Bit_matrix.create ?reuse:(Option.map (fun g -> g.matrix) reuse) !n;
      index = Some map;
      nodes = !n;
      edges = 0;
      (* One word per register for the mapping array, as the paper
         describes. *)
      mapping_bytes = 4 * f.nregs;
    }
  in
  scan f cfg live ~def:(fun d set ->
      let i = map.(d) in
      if i >= 0 then t.edges <- t.edges + Bit_matrix.union_set ~map t.matrix i set);
  t

let interferes t a b = a <> b && Bit_matrix.get t.matrix (idx t a) (idx t b)

let neighbors t r =
  let acc = ref [] in
  Bit_matrix.iter_row (fun x -> acc := x :: !acc) t.matrix (idx t r);
  List.rev !acc

let degree t r = Bit_matrix.row_count t.matrix (idx t r)

let merge t ~into b =
  t.edges <- t.edges + Bit_matrix.union_row t.matrix ~into:(idx t into) (idx t b)

let num_nodes t = t.nodes
let num_edges t = t.edges
let matrix_bytes t = Bit_matrix.memory_bytes t.matrix
let memory_bytes t = matrix_bytes t + t.mapping_bytes
