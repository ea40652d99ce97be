(** The dominance forest (paper Definition 3.1, Figure 1).

    Given a set S of SSA variables, the dominance forest connects the blocks
    containing their definitions with an edge B_i → B_j exactly when B_i
    strictly dominates B_j with no other member's block in between — i.e. it
    collapses dominator-tree paths onto the members of S. Lemma 3.1 then
    guarantees that a member can only interfere with another member if it
    interferes with one of its {e forest children}, so the coalescer's
    pairwise search space shrinks from O(|S|²) to the forest's edges.

    Members defined in the same block are chained parent→child in definition
    order (the paper resolves same-block pairs in the walk of Figure 2, and
    so does {!Coalesce}).

    Construction sorts members by dominator-tree preorder number and runs
    the stack algorithm of Figure 1, using the preorder/max-preorder
    descendant test from {!Analysis.Dominance}. *)

type node = {
  var : Ir.reg;
  block : Ir.label;
  def_index : int;
      (** Position of the definition inside the block; [-1] for φ-nodes and
          parameters. Orders same-block members. *)
  mutable children : node list;
}

type t = node list
(** The roots of the forest. *)

val build : Analysis.Dominance.t -> (Ir.reg * Ir.label * int) list -> t
(** [build dom members] constructs the forest for [members] given as
    [(variable, defining block, definition index)] triples. All blocks must
    be reachable. O(|S| + the largest member preorder number), plus a sort
    of any members that share a block. *)

val build_all :
  Analysis.Dominance.t -> (Ir.reg * Ir.label * int) list array -> t array
(** One forest per member list, each identical to {!build}'s, with the
    members of all lists sorted in one counting sort: O(total members +
    blocks) for a whole function's congruence classes, not O(blocks) per
    class. *)

val iter_edges : t -> (node -> node -> unit) -> unit
(** Apply to every (parent, child) edge, depth-first. *)

val size : t -> int
(** Total number of nodes. *)

val num_edges : t -> int

val pp : Ir.func -> Format.formatter -> t -> unit
(** The forest as parent-child edges, register names from [func]. *)
