(** Iterative bit-vector liveness over the CFG, φ-aware.

    As required by the paper (Section 3.1), the analysis distinguishes values
    that flow into a block's φ-nodes from values flowing to ordinary uses:

    - a φ argument is a use {e at the end of the corresponding predecessor}
      (it travels along the edge, so it is in the predecessor's live-out but
      {e not} in the φ block's live-in);
    - a φ definition kills its target at the top of its block (the target is
      not live-in either).

    On φ-free (non-SSA) code this is ordinary liveness. *)

type t

val compute : ?obs:Obs.t -> Ir.func -> Ir.Cfg.t -> t
(** Worklist dataflow to a fixpoint, allocating fresh bit vectors. *)

val compute_into :
  scratch:Support.Scratch.t -> ?obs:Obs.t -> Ir.func -> Ir.Cfg.t -> t
(** Like {!compute}, but every bit vector — the result sets as well as the
    per-block gen/kill temporaries and the worklist — is acquired from
    [scratch]. Pair with {!release} to recycle the result's vectors once the
    analysis is no longer needed. When [obs] is given, the number of worklist
    pops is charged to [Obs.Liveness_worklist_pops]. *)

val release : Support.Scratch.t -> t -> unit
(** Return the result's live-in/live-out vectors to the arena. [t] must not
    be used afterwards. *)

val live_in : t -> Ir.label -> Support.Bitset.t
(** Do not mutate the returned set. *)

val live_out : t -> Ir.label -> Support.Bitset.t
(** Do not mutate the returned set. *)

val live_in_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_in} without materializing the set. *)

val live_out_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_out} without materializing the set. *)

val memory_bytes : t -> int
(** Total bytes of the live-in/live-out bit vectors, for the memory
    accounting experiments. *)

val interfere_at_bounds : t -> Ir.reg -> Ir.label -> Ir.reg -> Ir.label -> bool
(** [interfere_at_bounds t v1 b1 v2 b2], with [b1]/[b2] the defining blocks:
    Theorem 2.2's block-boundary test — [v1] live-in at [b2]'s head (or vice
    versa). Same-block and intra-block overlaps are {e not} detected here. *)
