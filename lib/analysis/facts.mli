(** What is known about one function value: its CFG, its dominator tree
    when one is known, and its liveness when a verdict solved it — the
    analyses every pass of a compile would otherwise rebuild for itself.

    A pass manager obtains facts only from the validator that has just
    checked that exact function value, and hands them to the next pass
    beside the function. The record never enters a report, a stage or a
    cache entry. The CFG and the tree come from the heap. The liveness
    comes from the calling domain's scratch arena: whoever obtained it
    from {!checked} owns it and returns it with {!release} once the pass
    it was handed to has returned; a pass reads it and neither releases
    it nor keeps it. Every other constructor here leaves [live] empty. *)

type t = {
  cfg : Ir.Cfg.t;
  dom : Dominance.t option;  (** when present, the dominator tree of [cfg] *)
  live : Liveness.t option;
      (** when present, the block-boundary liveness of the function over
          [cfg], solved without charging its worklist pops (see
          {!Liveness.compute_into}) *)
}

val checked :
  ?obs:Obs.t -> Ir.func -> (t, Ir.Validate.error list) result
(** The input contract's verdict on a φ-free function,
    {!Ir.Validate.run_cfg}'s in every case, and the facts of a function
    that passes it. The structural checks run first, and their errors are
    returned as they are. Then one liveness solve on the domain's arena
    decides strictness ({!Liveness.strict}), and only when it fails does
    {!Ir.Validate.run_cfg} run, to write the errors; so a valid function
    costs no definite-assignment solve. On success [live] holds that solve
    (none on the validator's path), owned by the caller. With [obs], the
    solves count in the work counters ({!Obs.add_work}); no worklist pops
    are charged.

    [f] must be φ-free: {!Liveness.strict} charges φ arguments of
    unreachable blocks, which definite assignment ignores, so on a
    function with φs the two verdicts may differ. A caller that may see
    φs scans for them first and asks {!Ir.Validate.run_cfg}. *)

val release : t -> unit
(** Return [live], if any, to the calling domain's arena. The facts must
    not be read for [live] afterwards. *)

val of_func : Ir.func -> t
(** A fresh CFG, no tree, no liveness. *)

val or_build : t option -> Ir.func -> t
(** The given facts of [f], or {!of_func} [f] when none are given. *)

val dominance : Ir.func -> t -> Dominance.t
(** The carried tree, or a fresh solve over the carried CFG. *)

val reuse : candidate:t -> Ir.Cfg.t -> t
(** [reuse ~candidate cfg] is the facts of a function whose CFG is [cfg]:
    [candidate]'s tree, when it has one and its CFG {!Ir.Cfg.equal}s
    [cfg] — a tree depends on the graph alone — and no tree otherwise;
    never a liveness. *)

val split_critical_edges : ?obs:Obs.t -> t -> Ir.func -> Ir.func * t
(** {!Ir.Edge_split.split} from the carried CFG: the split function with
    the CFG and tree updated to it ({!Dominance.after_split}), not rebuilt
    or solved again; no liveness. *)
