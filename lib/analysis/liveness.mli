(** Iterative bit-vector liveness over the CFG, φ-aware.

    As required by the paper (Section 3.1), the analysis distinguishes values
    that flow into a block's φ-nodes from values flowing to ordinary uses:

    - a φ argument is a use {e at the end of the corresponding predecessor}
      (it travels along the edge, so it is in the predecessor's live-out but
      {e not} in the φ block's live-in);
    - a φ definition kills its target at the top of its block (the target is
      not live-in either).

    On φ-free (non-SSA) code this is ordinary liveness.

    The solver runs over a dense index of the names that cross a block
    boundary: the registers upward-exposed in some reachable block (used
    before any definition in that block) and the φ arguments. Every other
    name is used only after a definition in its own block, so it is in no
    live-in or live-out set, and liveness, being exact per variable, gives
    the same sets on the indexed names as a solve over every register.
    The rows are [width] bits wide instead of [nregs]; every accessor below
    answers in register coordinates. *)

type t

val compute : ?obs:Obs.t -> Ir.func -> Ir.Cfg.t -> t
(** Worklist dataflow to a fixpoint, allocating fresh matrices. *)

val compute_into :
  scratch:Support.Scratch.t -> ?obs:Obs.t -> Ir.func -> Ir.Cfg.t -> t
(** Like {!compute}, but the buffers come from [scratch]: live-in,
    live-out and the kill temporary are rows of three
    {!Support.Bitset.Matrix}es, one buffer each; the index and the flat
    buffer the block walk records its uses and definitions in are
    {!Support.Scratch.acquire_ints} buffers; the worklist arrays are pooled
    too. Pair with {!release} to recycle the result's matrices and index
    once the analysis is no longer needed. When [obs] is given, the number
    of worklist pops is charged to [Obs.Liveness_worklist_pops]; it is the
    count a solve over every register makes, since a name outside the
    index never enters a set. *)

val release : Support.Scratch.t -> t -> unit
(** Return the live-in/live-out matrices and the index to the arena. [t]
    must not be used afterwards. *)

val live_in : t -> Ir.label -> Support.Bitset.t
(** The block's live-in set as a fresh set of capacity [nregs]. Allocates;
    for tests and cold paths. *)

val live_out : t -> Ir.label -> Support.Bitset.t
(** The block's live-out set as a fresh set of capacity [nregs]. *)

val blit_live_in : t -> Ir.label -> Support.Bitset.t -> unit
(** [blit_live_in t l s] overwrites [s], of capacity [nregs], with the
    block's live-in set; allocation-free but for one row view. *)

val blit_live_out : t -> Ir.label -> Support.Bitset.t -> unit
(** {!blit_live_in} for the live-out set. *)

val live_in_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_in}, read through the index without a set. *)

val live_out_mem : t -> Ir.label -> Ir.reg -> bool
(** Membership in {!live_out}, read through the index without a set. *)

val width : t -> int
(** The number of indexed names: the rows' width in bits. The rows the
    solver keeps take 2 × blocks × ⌈width/8⌉ bytes. *)

val model_bytes : blocks:int -> nregs:int -> int
(** 2 × blocks × ⌈nregs/8⌉: the paper's full-width bit-vector model
    (Table 3), for the memory accounting experiments. It needs only the
    function's dimensions, not a solve, and it is not what the solver
    keeps (see {!width}). *)

val memory_bytes : t -> int
(** {!model_bytes} of the function this liveness was computed on. *)

val interfere_at_bounds : t -> Ir.reg -> Ir.label -> Ir.reg -> Ir.label -> bool
(** [interfere_at_bounds t v1 b1 v2 b2], with [b1]/[b2] the defining blocks:
    Theorem 2.2's block-boundary test — [v1] live-in at [b2]'s head (or vice
    versa). Same-block and intra-block overlaps are {e not} detected here. *)
