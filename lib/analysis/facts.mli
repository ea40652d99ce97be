(** What is known about one function value: its CFG and, when one is
    known, its dominator tree — the analyses every pass of a compile would
    otherwise rebuild for itself.

    A pass manager obtains facts only from the validator that has just
    checked that exact function value, and hands them to the next pass
    beside the function. The record is plain data: it never enters a
    report, a stage or a cache entry, and its arrays come from the heap,
    not from a scratch arena, so nothing in it is recycled under a later
    reader. *)

type t = {
  cfg : Ir.Cfg.t;
  dom : Dominance.t option;  (** when present, the dominator tree of [cfg] *)
}

val of_func : Ir.func -> t
(** A fresh CFG and no tree. *)

val or_build : t option -> Ir.func -> t
(** The given facts of [f], or {!of_func} [f] when none are given. *)

val dominance : Ir.func -> t -> Dominance.t
(** The carried tree, or a fresh solve over the carried CFG. *)

val reuse : candidate:t -> Ir.Cfg.t -> t
(** [reuse ~candidate cfg] is the facts of a function whose CFG is [cfg]:
    [candidate]'s tree, when it has one and its CFG {!Ir.Cfg.equal}s
    [cfg] — a tree depends on the graph alone — and no tree otherwise. *)

val split_critical_edges : ?obs:Obs.t -> t -> Ir.func -> Ir.func * t
(** {!Ir.Edge_split.split} from the carried CFG: the split function with
    the CFG and tree updated to it ({!Dominance.after_split}), not rebuilt
    or solved again. *)
