(** Structural and strictness validation of IR functions.

    The paper's algorithms are only correct on {e strict} programs
    (Definition 2.1: every path from the entry to a use passes a definition),
    so the checker enforces strictness with a definite-assignment dataflow in
    addition to purely structural well-formedness. *)

type error = {
  where : string;
  what : string;
}

val pp_error : Format.formatter -> error -> unit
(** [where: what], the form the [Invalid] exception message uses. *)

val structure : Mir.func -> error list
(** Structural checks: labels in range and consistent, registers in range,
    entry has no predecessors, φ arguments keyed exactly by the block's
    predecessors, no φ in the entry block. *)

val structure_cfg : Mir.func -> (Cfg.t, error list) result
(** {!structure}, returning on success the CFG the checks built, for a
    later check that needs the same graph. *)

val strictness : Mir.func -> error list
(** Definite-assignment check over reachable code: every register use (in
    instruction bodies, terminators, and as φ arguments at the end of the
    corresponding predecessor) must be dominated by definitions on all
    paths. *)

val run : Mir.func -> error list
(** All checks. Empty means valid. *)

val check_exn : Mir.func -> unit
(** Raises [Failure] with a readable message if {!run} finds errors. *)
