(** Checks that a function is in {e regular} SSA form (the paper's
    Section 2): every register has a unique definition point, every ordinary
    use is dominated by its definition, and every φ argument's definition
    dominates the predecessor block its value flows out of. *)

val run : Ir.func -> Ir.Validate.error list
(** Empty list means the function is regular SSA. Includes the structural
    checks of {!Ir.Validate.structure}. *)

val run_facts :
  ?candidate:Analysis.Facts.t ->
  Ir.func ->
  (Analysis.Facts.t, Ir.Validate.error list) result
(** {!run}, returning on success the facts of the checked function: the
    CFG the structural checks built and the dominator tree the dominance
    checks used. That tree is [candidate]'s when [candidate] carries one
    and its CFG {!Ir.Cfg.equal}s the one built here (a pass's own tree,
    offered with the graph it was solved over); otherwise it is solved
    afresh. Either way the checks run in full. *)

val check_exn : Ir.func -> unit
