(** Structural and strictness validation of IR functions.

    The paper's algorithms are only correct on {e strict} programs
    (Definition 2.1: every path from the entry to a use passes a definition),
    so the checker enforces strictness with a definite-assignment dataflow in
    addition to purely structural well-formedness.

    This is the standalone checker, and the source of every error message.
    A compile does not run its definite assignment on valid code: the pass
    manager decides strictness from a liveness solve it needs anyway
    ([Analysis.Facts.checked]: a φ-free function is strict iff every
    register live into the entry is a parameter) and calls {!run_cfg} only
    when that verdict fails or the function has φs, so the errors, their
    order and their messages are always this module's. *)

type error = {
  where : string;
  what : string;
}

val pp_error : Format.formatter -> error -> unit
(** [where: what], the form the {!Invalid} exception message uses. *)

exception Invalid of string
(** A function that breaks the input contract of the pipelines: it fails
    {!run}, or (raised by [Pass.run]) it carries φ-nodes. The message is
    one [where: what] line per error, [where] naming the function and
    block (["f/b2"]). Front ends report it as invalid input — the CLI's
    exit 2, the serve protocol's [err status=2]. *)

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
    paths.

    The structural walk also finds the names that cross a block: the
    registers used in some block before any definition there, and the φ
    arguments. The dataflow runs over a dense index of those names only,
    with rows that many bits wide instead of one bit per register. Every
    use of any other register follows a definition in its own block, so it
    is always assigned. The problem is exact per variable, so the errors,
    their order and their messages are those of a solve over every
    register. *)

val run : Mir.func -> error list
(** All checks: {!structure}, then, if it passed, {!strictness}'s
    definite assignment. Empty means valid. *)

val run_cfg : ?obs:Obs.t -> Mir.func -> (Cfg.t, error list) result
(** {!run}, returning on success the CFG the checks built — the graph a
    pass manager hands to the pass that consumes the checked function.
    With [obs], a definite-assignment solve counts one
    ["definite_assignment_solves"] work counter ({!Obs.add_work}). *)

val render : error list -> string
(** The errors through {!pp_error}, one per line. *)

val check_exn : Mir.func -> unit
(** Raises {!Invalid} with {!run}'s errors, {!render}ed, if it finds any. *)
