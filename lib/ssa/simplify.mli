(** Scalar simplification on SSA form: constant folding, copy propagation,
    algebraic identities, and φ-collapsing.

    This is the "optimizer's SSA implementation" context the paper places
    itself in ("it can replace the current copy-insertion phase of an
    optimizer's SSA implementation"). One round-based rewriter keeps a
    memoized value table (register → final operand) and, in each round
    over the reachable blocks,

    - propagates copies ([x := y] records [x ↦ resolve y] and is deleted,
      so later uses of [x] read [y] — or [y]'s constant — directly; the
      same substitution copy folding performs during construction, as a
      standalone pass). A copy of a constant {e is} a constant
      propagation ("Copy Propagation subsumes Constant Propagation",
      PAPERS.md);
    - collapses φ-nodes whose arguments, self-loops aside, all resolve to
      one operand: such a φ is a copy in disguise;
    - with folding on, also folds operations whose operands are constants
      (with the same arithmetic as {!Interp}, leaving division by a
      constant zero untouched so faulting programs still fault) and
      applies the identities that keep the value's tag ([x + 0], [x - 0],
      [x * 1], [x / 1]).

    Rounds repeat until a fixpoint. Control flow is never changed, so the
    passes compose with {!Dce} for cleanup rather than deleting dead code
    themselves. *)

type stats = {
  folded : int;  (** instructions turned into constants *)
  identities : int;  (** algebraic simplifications *)
  copies_propagated : int;  (** [Copy] instructions removed *)
  consts_propagated : int;
      (** the removed copies whose resolved source was a constant — the
          constant-propagation fragment *)
  phis_collapsed : int;
  rounds : int;
}

val run : Ir.func -> Ir.func * stats
(** The full rewriter. Input must be valid SSA; output is valid SSA with
    the same behaviour (including faults). *)

val run_exn : Ir.func -> Ir.func
(** [fst (run f)]. *)

val propagate : Ir.func -> Ir.func * stats
(** Copy propagation and φ collapsing alone: no arithmetic is evaluated
    and no identity applied, so [folded] and [identities] are 0. Pipelines
    schedule it on its own, e.g. before {!Dce} and the coalescer, where
    every deleted copy and φ is one the conversion routes no longer have
    to reinsert. Same contract as {!run}. *)
