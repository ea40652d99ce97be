(** Sequentialization of parallel copies.

    All copies that instantiate the φ-nodes of one block along one CFG edge
    conceptually execute {e simultaneously} on that edge. Emitting them
    naively one after another is wrong whenever a destination is also a
    pending source — the {e swap problem} (and the paper's {e virtual swap},
    Figures 3–4, is the version that materializes only after coalescing has
    renamed the participants). This module emits a correct sequential order,
    reading each value from its current location and breaking each cycle
    with one fresh temporary (Briggs et al.'s careful ordering; the
    formulation follows Boissinot et al.'s worklist algorithm). *)

type move = {
  dst : Ir.reg;
  src : Ir.operand;
}

val sequentialize :
  ?obs:Obs.t ->
  fresh:(unit -> Ir.reg) ->
  move list ->
  Ir.instr list
(** [sequentialize ~fresh moves] is a list of [Copy] instructions whose
    sequential execution has the same effect as performing all [moves] at
    once. Destinations must be pairwise distinct. Identity moves are
    dropped. [fresh] mints cycle-breaking temporaries; the caller names
    them. [obs] charges each minted temporary to
    [Obs.Parallel_copy_temps]; the emitted copies are counted by the
    callers, which know the conversion route. *)

val needs_temp : move list -> bool
(** Whether the parallel copy contains a register cycle (and so
    sequentialization will need a temporary). *)
