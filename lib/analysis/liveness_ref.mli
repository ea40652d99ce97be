(** Reference liveness solver on hash-table sets.

    Same backward worklist and same φ conventions as [Liveness], but every
    set is a [Hashtbl] keyed by register and the per-block tables live in a
    label-keyed [Hashtbl] — the boxed-lookup style the dense core replaced.
    It is the differential oracle [repro-cli fuzz] compares [Liveness]
    against on every seed. Not for use in the pipeline. *)

type t

val compute : Ir.func -> Ir.Cfg.t -> t
(** Solve liveness for one function; allocates fresh tables per call. *)

val live_in : t -> Ir.label -> Ir.reg list
(** Registers live into a block, sorted increasing. *)

val live_out : t -> Ir.label -> Ir.reg list
(** Registers live out of a block, sorted increasing. *)
