(** The whole backend as one pipeline:

    {v
    source ──lower──► CFG ──SSA──► [transforms…] ─► conversion
                                                      │
                  executable CFG ◄── [finishers…] ◄───┘
    v}

    where {e conversion} is any of the paper's four SSA-to-CFG routes.
    This is the deployment story of the paper's introduction — a JIT-style
    backend where the graph-free coalescer replaces both the separate
    coalescing phase and the φ-instantiation.

    A pipeline is a shape-checked [Pass.t list], usually parsed from a
    spec by {!Pass.Spec.parse} (["construct:pruned,coalesce"] is the
    paper's New route). It reaches a compiled function through one of
    three doors, all running the same {!Pass.run} middleware (the input
    contract, obs spans, structural validation, stage capture, deferred
    [--check] hooks):
    {!compile_passes} for one function, {!compile_batch_passes} for a
    list on a domain pool, and {!stream_passes_in} for a producer of any
    length. *)

(** {1 Config record}

    Kept only because the repository benchmark builds its default
    pipeline with [passes_of_config default] ([bench/e2e/report.ml]);
    it goes with that benchmark's next change. Every other caller names
    its pipeline with a spec; the tests use the record only to pin that
    both spell the same fingerprint. *)

type conversion =
  | Standard  (** naive φ-instantiation, no coalescing *)
  | Coalescing of Core.Coalesce.options  (** the paper's algorithm *)
  | Graph of Baseline.Ig_coalesce.variant
      (** naive instantiation + interference-graph coalescing *)
  | Sreedhar_i
      (** Sreedhar et al.'s Method I: correct by construction, most copies *)

type config = {
  pruning : Ssa.Construct.pruning;
  fold_copies : bool;  (** copy folding during SSA construction *)
  simplify : bool;  (** {!Ssa.Simplify} after construction *)
  dce : bool;  (** {!Ssa.Dce} before conversion *)
  conversion : conversion;
  registers : int option;  (** [Some k]: finish with a k-register allocation *)
}

val default : config
(** Pruned SSA, folding on, simplify and dce off, the paper's coalescer
    with default options, no register allocation: the spec
    ["construct:pruned,coalesce"]. *)

val passes_of_config : config -> Pass.Pipeline.t
(** The pipeline a config denotes: construct, the enabled transforms in
    their historical order (simplify before dce), the conversion, and the
    allocator when [registers] is set. Its {!Pass.Pipeline.fingerprint}
    equals that of the equivalent spec, so cache keys do not depend on
    which of the two built the pipeline. *)

(** {1 Compiling} *)

type stage = Pass.stage = {
  name : string;
  func : Ir.func;  (** snapshot after the stage *)
  note : string;  (** one-line statistics summary *)
}

type report = Pass.report = {
  input : Ir.func;
  output : Ir.func;  (** φ-free; register ids are colors if allocated *)
  stages : stage list;  (** in execution order *)
}

val compile_passes :
  ?check:bool ->
  ?scratch:Support.Scratch.t ->
  ?obs:Obs.t ->
  ?cache:Cache.t ->
  Pass.Pipeline.t ->
  Ir.func ->
  report
(** Run a pipeline on one function. The input must be a strict, φ-free
    CFG function (e.g. from {!Frontend.Lower}); any other input raises
    {!Ir.Validate.Invalid} (see {!Pass.run}). Every intermediate stage is
    validated. Raises [Invalid_argument] on a shape-invalid pipeline (see
    {!Pass.Pipeline.validate}).

    With [check] (default [false]) the run is additionally
    translation-validated: the output is executed against the input on
    {!Check.equiv}'s argument battery (ignoring the allocator's spill
    memory), and the coalescer's surviving congruence classes pass
    {!Check.interference_audit}; violations raise {!Check.Failed}.
    [scratch] is threaded to the passes so batch drivers can reuse
    analysis buffers across functions; it must belong to the calling
    domain. [obs] collects the operation counters of every stage (the
    structured counterpart of the [note] strings) plus per-phase timing
    spans ([construct], [simplify], [dce], [convert], [regalloc],
    [check]); the recorder never changes the compilation result.

    With [cache], the compile reads through {!Cache.compute_through} under
    {!Cache.key}: a hit skips the pipeline entirely (so [obs] records no
    pass spans for it), a miss compiles and stores. Cache stat deltas from
    this call are published to [obs] as extra counters ([cache_hits],
    [cache_misses], …). *)

val compile_batch_passes :
  ?jobs:int ->
  ?check:bool ->
  ?obs:Obs.t ->
  ?cache:Cache.t ->
  Pass.Pipeline.t ->
  Ir.func list ->
  report list
(** Compile a batch of functions in parallel on an {!Engine.Pool} of [jobs]
    domains (default {!Engine.default_jobs}), each domain reusing its own
    scratch arena across the functions it compiles. Reports come back in
    input order and are identical to sequential {!compile_passes}
    results. [obs] aggregates without contention: each task records into
    a private recorder, merged into [obs] at the join in input order.
    Pass values are immutable closures, safe to share across the pool's
    domains.

    The list is fed through {!stream_passes_in}, cache or no cache, and
    [cache] behaves exactly as there: a distinct (function, pipeline,
    check) key is compiled once unless its entry is evicted before a
    duplicate arrives. A duplicate of an item already compiled counts as a
    hit, and one whose original is still in flight counts as
    [cache_dedup_collapsed]. Results stay in input order either way. *)

val compile_batch_passes_in :
  Engine.Pool.t ->
  ?check:bool ->
  ?obs:Obs.t ->
  ?cache:Cache.t ->
  Pass.Pipeline.t ->
  Ir.func list ->
  report list
(** {!compile_batch_passes} on an existing pool, so long-lived drivers (the
    serve loop, repeated benchmark batches) pay the domain-spawn cost once
    and keep each domain's scratch arena warm across batches. *)

val stream_passes_in :
  Engine.Pool.t ->
  ?check:bool ->
  ?window:int ->
  ?obs:Obs.t ->
  ?cache:Cache.t ->
  producer:(unit -> Ir.func option) ->
  consumer:(int -> report -> unit) ->
  Pass.Pipeline.t ->
  unit
(** The streaming core the batch API sits on: pull functions from
    [producer] until it yields [None], compile them across the pool, and
    hand each report to [consumer seq report] in input order from a
    bounded reorder window (see {!Engine.Stream.run} — [window] defaults
    to {!Engine.Stream.default_window}). Memory in flight is [O(window)]
    reports no matter how many functions the producer yields, which is
    what lets a 10⁵–10⁶-function corpus flow through a fixed-size heap.

    [obs] aggregates without contention exactly as in
    {!compile_batch_passes}: one private recorder per item, merged at the
    emission frontier in input order. With [cache], each item goes
    through {!Cache.compute_through}: warm items are hits that skip the
    pass manager, identical items in flight at once collapse onto one
    compilation ([cache_dedup_collapsed]), and the cache stat deltas for
    the whole stream are published to [obs] at the end. A later duplicate
    of an already-compiled item is an ordinary warm hit. *)

val pp_report : Format.formatter -> report -> unit
(** The per-stage notes, one per line. *)
