(** Interference queries without an interference graph.

    The paper's central observation (Theorems 2.1 and 2.2): in a regular SSA
    program two variables interfere only if one's definition dominates the
    other's, and then the interference is visible either in the liveness
    sets at the boundaries of the dominated definition's block, or — the one
    remaining case — inside that block, which a single backward walk
    resolves (Section 3.4). *)

type def_site = {
  block : Ir.label;
  index : int;  (** position in the body; [-1] for φ-nodes and parameters *)
}

val def_sites : Ir.func -> def_site option array
(** Definition site of every register, indexed by register. [None] for
    registers never defined (e.g. minted but unused). Requires single
    definitions (SSA). *)

val live_just_after :
  ?into:Support.Bitset.t ->
  Ir.func -> Analysis.Liveness.t -> reg:Ir.reg -> at:def_site -> bool
(** Is [reg] live immediately after the given definition point? For a φ/
    parameter site ([index = -1]) the point is "after all φ definitions at
    the top of the block". Implemented as a backward walk from the block's
    live-out — the Section 3.4 local check — as a single query of
    {!live_just_after_all}. [?into] supplies a reusable working bitset
    (capacity = the function's register count, contents clobbered).
    Raises [Invalid_argument] if [at.index] is below [-1] or not below the
    block's body length. *)

val live_just_after_all :
  ?into:Support.Bitset.t ->
  Ir.func -> Analysis.Liveness.t -> (Ir.reg * def_site) array -> bool array
(** [live_just_after_all f live queries] answers every [(reg, at)] query
    as {!live_just_after} would, with one backward walk per block that has
    queries (Section 3.4), rather than one per query. Answer [k] belongs to
    query [k]. Raises [Invalid_argument] as {!live_just_after} does. *)

val precise :
  Ir.func ->
  Analysis.Dominance.t ->
  Analysis.Liveness.t ->
  def_site option array ->
  Ir.reg ->
  Ir.reg ->
  bool
(** Exact Chaitin-style interference between two SSA names: true iff the
    definition of one dominates the other's and the earlier-defined variable
    is live just after the later definition (writing a shared name there
    would clobber it). This O(block) query is the test oracle for the
    coalescer. *)
