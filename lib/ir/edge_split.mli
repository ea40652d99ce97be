(** Critical-edge splitting.

    An edge (a, b) is critical when [a] has several successors and [b] has
    several predecessors. Copies that instantiate a φ argument flowing along
    such an edge can be placed neither at the end of [a] (they would execute
    on a's other paths) nor at the start of [b] (they would clobber values
    arriving from b's other predecessors) — this is the {e lost-copy
    problem}. The paper (Section 3.6) avoids it by splitting every critical
    edge up front, which is what this pass does. *)

val is_critical : Cfg.t -> src:Mir.label -> dst:Mir.label -> bool

val count_critical : Mir.func -> int
(** Number of critical edges {!run} would split. *)

val run : Mir.func -> Mir.func
(** Insert a fresh jump-only block on every critical edge and retarget the
    corresponding φ-argument labels. Idempotent. *)

val split :
  ?obs:Obs.t ->
  Cfg.t ->
  Mir.func ->
  Mir.func * Cfg.t * (Mir.label * Mir.label) array
(** [split cfg f] is {!run} working from [f]'s CFG [cfg]: it returns the
    split function, its CFG updated by {!Cfg.split_edges} rather than
    rebuilt, and the split edges — edge [i], [(src, dst)], is split by the
    jump-only block [num_blocks f + i], which is what
    [Analysis.Dominance.after_split] needs to update a dominator tree.
    Only the blocks at either end of a split edge are rebuilt; every other
    block is shared with [f]. With no critical edge, [f] and [cfg] come
    back as they are. [obs] charges the number of split edges to
    [Obs.Critical_edges_split]. *)
