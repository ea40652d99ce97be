(** Derived control-flow-graph structure for a function.

    All analyses need predecessor/successor queries and depth-first orders;
    this module computes them once in {!of_func} so passes share them.
    Adjacency is stored CSR-style ([Support.Csr]): every query below is an
    array read and no query allocates, except the [_list] accessors which
    exist for tests and cold paths. Labels not reachable from the entry
    keep empty predecessor rows and are excluded from the orders. *)

type t

val of_func : Mir.func -> t
(** One pass over the terminators plus a DFS; O(blocks + edges), and the
    only allocation any later query needs. *)

val split_edges : t -> (Mir.label * Mir.label) array -> t
(** The CFG after splitting [edges], derived from [t]'s rows rather than
    from a function: edge [i], [(src, dst)], is replaced by a fresh block
    [num_blocks t + i] with [dst] as its one successor, which takes the
    edge's place in [src]'s row. The edges must be distinct edges of [t]
    from reachable blocks, grouped by source in increasing label order and
    each source's in row order — the order {!Edge_split} finds them in.
    The result equals {!of_func} of the split function in every query.
    Returns [t] itself when [edges] is empty. *)

val equal : t -> t -> bool
(** Same entry and the same successor rows, predecessor rows and
    reachability, block for block — hence the same orders. O(blocks +
    edges). A dominator tree computed over one is the tree of the other. *)

val num_succs : t -> Mir.label -> int
(** Number of distinct successors of a block. O(1). *)

val num_preds : t -> Mir.label -> int
(** Number of distinct (reachable) predecessors of a block. O(1). *)

val succ : t -> Mir.label -> int -> Mir.label
(** [succ t l i] is the [i]-th distinct successor, in terminator order. *)

val pred : t -> Mir.label -> int -> Mir.label
(** [pred t l i] is the [i]-th predecessor, in increasing label order. *)

val iter_succs : t -> Mir.label -> (Mir.label -> unit) -> unit
(** Apply to each distinct successor in terminator order; allocation-free. *)

val iter_preds : t -> Mir.label -> (Mir.label -> unit) -> unit
(** Apply to each predecessor in increasing label order; allocation-free. *)

val fold_succs : t -> Mir.label -> ('a -> Mir.label -> 'a) -> 'a -> 'a
(** Fold over distinct successors in terminator order; allocation-free. *)

val fold_preds : t -> Mir.label -> ('a -> Mir.label -> 'a) -> 'a -> 'a
(** Fold over predecessors in increasing label order; allocation-free. *)

val succs_list : t -> Mir.label -> Mir.label list
(** Distinct successors in terminator order, as a fresh list. Allocates —
    for tests and cold paths; hot code uses {!iter_succs}. *)

val preds_list : t -> Mir.label -> Mir.label list
(** Distinct predecessors in increasing label order, as a fresh list.
    Allocates — for tests and cold paths; hot code uses {!iter_preds}. *)

val reachable : t -> Mir.label -> bool
(** Whether the block is reachable from the entry. *)

val postorder : t -> Mir.label array
(** Reachable labels in a depth-first postorder from the entry. The array
    is owned by [t]: callers must not mutate it. *)

val reverse_postorder : t -> Mir.label array
(** {!postorder} reversed, precomputed once. The array is owned by [t]:
    callers must not mutate it. *)

val postorder_index : t -> Mir.label -> int
(** Position of a label in {!postorder}, or -1 if unreachable. O(1). *)

val num_blocks : t -> int
(** Same as the function's block count (unreachable blocks included). *)

val entry : t -> Mir.label
(** The function's entry label. *)

val num_edges : t -> int
(** Number of CFG edges between reachable blocks. O(1). *)
