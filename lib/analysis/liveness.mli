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
(** Worklist dataflow to a fixpoint, allocating fresh matrices. *)

val compute_into :
  scratch:Support.Scratch.t -> ?obs:Obs.t -> Ir.func -> Ir.Cfg.t -> t
(** Like {!compute}, but the four per-block sets — live-in, live-out and the
    gen/kill temporaries — are rows of four {!Support.Bitset.Matrix}es, one
    buffer each, acquired from [scratch] with the worklist arrays. Pair with
    {!release} to recycle the result's two matrices once the analysis is no
    longer needed. When [obs] is given, the number of worklist pops is
    charged to [Obs.Liveness_worklist_pops]. *)

val release : Support.Scratch.t -> t -> unit
(** Return the live-in/live-out matrices to the arena. [t] must not be used
    afterwards. *)

val live_in : t -> Ir.label -> Support.Bitset.t
(** A view of the block's row. Do not mutate the returned set. *)

val live_out : t -> Ir.label -> Support.Bitset.t
(** A view of the block's row. Do not mutate the returned set. *)

val live_in_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_in}, read from the row without a view. *)

val live_out_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_out}, read from the row without a view. *)

val memory_bytes : t -> int
(** Bytes of the live-in/live-out rows, 2 × blocks × ⌈registers/8⌉: the
    paper's bit-vector model (Table 3), for the memory accounting
    experiments. *)

val interfere_at_bounds : t -> Ir.reg -> Ir.label -> Ir.reg -> Ir.label -> bool
(** [interfere_at_bounds t v1 b1 v2 b2], with [b1]/[b2] the defining blocks:
    Theorem 2.2's block-boundary test — [v1] live-in at [b2]'s head (or vice
    versa). Same-block and intra-block overlaps are {e not} detected here. *)
