(** The interference-graph coalescing baseline: the "coalescing phase
    stripped from a Chaitin/Briggs register allocator" the paper compares
    against (Section 4).

    Input is φ-free code (typically the output of naive φ-instantiation,
    which is where the copies come from). The build/coalesce loop:

    + rewrite the code with the current live-range map (union-find);
    + build the interference graph — over {e all} live-range names
      ({b Briggs}) or only names involved in copies ({b Briggs*},
      the paper's Section 4.1 improvement);
    + walk remaining copies, innermost loops first, and union source with
      destination whenever they do not interfere;
    + the graph is now stale, so repeat until a pass coalesces nothing.

    Both variants produce {e identical} final code; they differ only in the
    size of the graph built each round — which Table 1 measures. This is
    the one graph coalescer: the [briggs] and [briggs-star] passes both run
    it. *)

type variant = Briggs | Briggs_star

type stats = {
  rounds : int;  (** graph-build passes, ≥ 1 *)
  coalesced : int;  (** copies folded away *)
  copies_remaining : int;
  graph_bytes_per_round : int list;  (** Table 1's per-pass memory *)
  peak_graph_bytes : int;
  graph_nodes_per_round : int list;
  graph_edges_per_round : int list;
      (** undirected interference edges of each build — with nodes and
          bytes, the bench tables' peak-graph-size columns *)
  aux_memory_bytes : int;  (** liveness + union-find, for Table 3 *)
}

val run : ?facts:Analysis.Facts.t -> variant:variant -> Ir.func -> Ir.func * stats
(** Each round's liveness matrices come from the calling domain's arena
    and go back to it once the round's graph is built; each round's graph
    takes over the previous round's bit-matrix storage. Every round's code
    is {!rename} of [f], so it has [f]'s CFG: [facts] (the CFG and, if
    known, the dominator tree of [f]) serve every round and the loop
    nesting; without them the CFG is built and the tree solved here, once.
    Raises [Invalid_argument] if the function still has φ-nodes. *)

val run_exn : ?facts:Analysis.Facts.t -> variant:variant -> Ir.func -> Ir.func

val rename : Ir.func -> (Ir.reg -> Ir.reg) -> Ir.func
(** One round's code: every register of the parameters, bodies and
    terminators mapped through the live-range map. Blocks, terminator
    targets and instruction counts are kept, so the CFG is [f]'s. *)
