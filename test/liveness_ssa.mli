(** Liveness on SSA form computed by use-chain walking (à la Boissinot et
    al., "Fast liveness checking for SSA-form programs"): for every use, the
    variable is propagated live backwards from the use block up to (but not
    into) its defining block, with φ uses starting at the end of the
    corresponding predecessor.

    This is a second, independently-derived implementation of the same sets
    as [Analysis.Liveness] on SSA input, kept here as the test oracle for
    the liveness the coalescer trusts. It is only correct for
    {e regular SSA} programs (unique defs dominating their uses). *)

type t

val compute : Ir.func -> Ir.Cfg.t -> t
(** One def-to-uses walk per variable; the input must be regular SSA. *)

val live_in : t -> Ir.label -> Support.Bitset.t
(** Registers live at block entry. Do not mutate the returned set. *)

val live_out : t -> Ir.label -> Support.Bitset.t
(** Registers live at block exit. Do not mutate the returned set. *)
