(** SSA construction (Cytron et al.) with the engineering choices the paper
    assumes.

    φ-placement flavours:
    - {b Minimal}: φ at every iterated-dominance-frontier block of each
      variable's definition sites.
    - {b Semi_pruned}: only for variables that are upward-exposed in some
      block (Briggs et al.'s "non-local names").
    - {b Pruned}: only where the variable is live-in — what the paper builds
      ("we build pruned SSA to make the reasoning simpler").

    [fold_copies] enables copy folding during renaming: a [Copy] whose
    source is available is deleted and its destination's uses rewritten to
    the source operand, so the only copies that survive to the φ-congruence
    world are the ones φ-instantiation will have to reinsert — exactly the
    setup of the paper's optimistic algorithm. *)

type pruning = Minimal | Semi_pruned | Pruned

type stats = {
  phis_inserted : int;
  copies_folded : int;
}

val run :
  ?pruning:pruning -> ?fold_copies:bool -> ?obs:Obs.t -> Ir.func ->
  Ir.func * stats
(** Convert a strict function to SSA form. Default [pruning] is [Pruned],
    default [fold_copies] is [true]. The input must pass
    {!Ir.Validate.run}. Pruned placement draws its liveness matrices from
    the calling domain's scratch arena and returns them before renaming.
    [obs] charges [Obs.Phis_inserted] and [Obs.Copies_folded] (and the
    pruning liveness pass, when run). *)

val run_facts :
  ?pruning:pruning ->
  ?fold_copies:bool ->
  ?obs:Obs.t ->
  Analysis.Facts.t ->
  Ir.func ->
  Ir.func * stats * Analysis.Facts.t
(** {!run} from facts of the input (its CFG, and its dominator tree and
    liveness when known), so construction builds neither graph nor tree,
    and pruned placement reads the handed liveness instead of solving
    again, charging its worklist pops to [obs] as its own solve would. The
    handed liveness stays its owner's: construction neither releases nor
    keeps it. Also returns the facts with the tree construction used and
    no liveness: a candidate for the output's validator
    ({!Ssa_validate.run_facts}). The output's CFG differs from the input's
    wherever an unreachable block had successors, since such blocks are
    cut to a bare return. *)

val run_exn :
  ?pruning:pruning -> ?fold_copies:bool -> ?obs:Obs.t -> Ir.func -> Ir.func
(** {!run} without the statistics. *)
