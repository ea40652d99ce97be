(** The {b Standard} baseline: Briggs et al.'s φ-node instantiation with no
    attempt to eliminate copies.

    Every φ argument becomes a copy at the end of the corresponding
    predecessor (critical edges must have been split first — see
    {!Ir.Edge_split}); the copies of each edge are treated as one parallel
    copy and sequentialized, which is the "careful ordering with temporaries
    to break cycles" the paper credits to Briggs et al. for the lost-copy
    and swap problems. *)

type stats = {
  copies_inserted : int;
  temps_inserted : int;
}

val run : ?cfg:Ir.Cfg.t -> ?obs:Obs.t -> Ir.func -> Ir.func * stats
(** Remove all φ-nodes. [cfg] is [f]'s CFG when the caller has it (the
    split CFG {!Ir.Edge_split.split} returns); it is built here otherwise.
    The output has the same CFG: copies go into bodies only. Raises [Invalid_argument] if the function still has
    critical edges carrying φ arguments. [obs] charges the inserted copies
    (including cycle-breaking ones) to [Obs.Copies_inserted] and the minted
    temporaries to [Obs.Parallel_copy_temps]. *)

val run_exn : ?cfg:Ir.Cfg.t -> ?obs:Obs.t -> Ir.func -> Ir.func
