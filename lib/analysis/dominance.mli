(** Dominators, the dominator tree, and dominance frontiers.

    Immediate dominators come from the Cooper–Harvey–Kennedy iterative
    algorithm ("A Simple, Fast Dominance Algorithm"). Its intersect walk
    is O(n²) on degenerate shapes such as long ladders of join points,
    but so is the frontier construction on those shapes, and on the
    workloads the pipeline compiles the solve is a few microseconds of a
    millisecond compile (DESIGN.md §13). On top of the tree we compute the
    depth-first {e preorder} number of every block and the {e maximum
    preorder number among its descendants} — Tarjan's trick the paper
    uses (Section 3.2) to answer ancestry ("does block a dominate block
    b?") in constant time, and the ordering key for dominance-forest
    construction (Figure 1). *)

type t

val compute : Ir.func -> Ir.Cfg.t -> t
(** Immediate dominators plus the DFS numbering and the frontiers. *)

val compute_into : scratch:Support.Scratch.t -> Ir.func -> Ir.Cfg.t -> t
(** Like {!compute}, but the numbering arrays (idom, preorder, max-preorder,
    depth, tree order) and the internal temporaries are acquired from
    [scratch]. Pair with {!release} to recycle them. *)

val after_split : t -> Ir.Cfg.t -> (Ir.label * Ir.label) array -> t
(** [after_split t cfg edges] is the tree of a function after
    {!Ir.Edge_split.split}, given [t] (the tree before), the split CFG and
    the split edges: the block splitting edge [i] gets its source as idom;
    the edge's target gets that block as idom when the target dominates
    every other predecessor of its own (a loop header entered only over
    the edge), and keeps its idom otherwise; every other
    idom stays. The numbering, children and frontiers are derived afresh
    from those idoms — no fixpoint solve. Equal in every
    query to {!compute} over [cfg]. Returns [t] itself when [edges] is
    empty; otherwise the result's arrays come from the heap, not an
    arena. *)

val release : Support.Scratch.t -> t -> unit
(** Return the result's arrays to the arena. [t] must not be used
    afterwards. *)

val idom : t -> Ir.label -> Ir.label option
(** Immediate dominator; [None] for the entry and for unreachable blocks. *)

val children : t -> Ir.label -> Ir.label list
(** Dominator-tree children, in increasing preorder. *)

val dominates : t -> Ir.label -> Ir.label -> bool
(** Reflexive dominance, O(1) via preorder intervals. False if either block
    is unreachable. *)

val strictly_dominates : t -> Ir.label -> Ir.label -> bool
(** {!dominates}, minus equality. *)

val preorder : t -> Ir.label -> int
(** Preorder number in the dominator-tree DFS; -1 for unreachable blocks. *)

val max_preorder : t -> Ir.label -> int
(** Largest preorder number among the block's dominator-tree descendants
    (including itself). *)

val dom_tree_order : t -> Ir.label array
(** All reachable blocks in dominator-tree preorder. *)

val frontier : t -> Ir.label -> Ir.label list
(** Dominance frontier, as needed for φ placement. *)

val depth : t -> Ir.label -> int
(** Depth in the dominator tree (entry = 0). *)
