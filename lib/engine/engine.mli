(** Multicore batch-compilation engine.

    A {!Pool} owns [jobs - 1] worker domains (OCaml 5 [Domain]s coordinated
    with a [Mutex]/[Condition] pair plus an atomic task cursor); the
    submitting domain participates in every batch, so [jobs = 1] degenerates
    to plain sequential execution with no domain ever spawned. Tasks of a
    batch are claimed dynamically — whichever domain is free takes the next
    index — but results are stored by input index, so the output order (and,
    because every task is a pure function of its input, the output contents)
    is deterministic and independent of the scheduling.

    Each worker domain carries its own {!Support.Scratch} arena
    (domain-local storage), which {!compile_batch} threads into the
    coalescer so analysis buffers are reused across the functions a domain
    compiles instead of re-allocated per function. *)

module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** [create ~jobs ()] spawns [jobs - 1] worker domains (clamped to at
      least 1 job; default {!default_jobs}). *)

  val jobs : t -> int

  val run : t -> total:int -> (int -> unit) -> unit
  (** [run t ~total task] executes [task 0 .. task (total-1)] across the
      pool and returns when all have finished. [task] must be safe to call
      from any domain. If one or more tasks raise, the exception of the
      lowest-numbered failing task is re-raised after the batch drains. *)

  val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Parallel map with input-order results. *)

  val run_workers : t -> (int -> unit) -> unit
  (** [run_workers t body] runs [body 0 .. body (jobs t - 1)] with every
      instance resident on its own domain simultaneously (the submitting
      domain runs one too), returning when all have. This turns the batch
      pool into a set of long-lived workers — each keeping its domain's
      warm scratch arena — for callers like the serve loop that feed work
      through their own queue instead of a batch: each [body] is expected
      to loop until that queue closes. The pool is occupied for the whole
      call; do not submit other batches concurrently. *)

  val shutdown : t -> unit
  (** Stop and join the worker domains. The pool must not be used after.
      Idempotent. *)

  val with_pool : ?jobs:int -> (t -> 'a) -> 'a
  (** Create a pool, run [f], and shut the pool down (also on exception). *)
end

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

(** Streaming execution over the pool — the core the batch API is a façade
    over.

    A producer iterator feeds the pool through a bounded
    {!Support.Bqueue}; results are handed to a consumer callback {e in
    input order} from a bounded reorder window. Total memory in flight is
    [O(window)] items regardless of how many items the producer yields,
    which is what lets a 10⁶-function corpus flow through a fixed-size
    heap: the producer is admission-gated against the emission frontier,
    so at most [window] items are ever queued, computing, or parked
    awaiting reordering. *)
module Stream : sig
  val default_window : int
  (** Reorder-window (and queue-capacity) default: 64. *)

  val run :
    Pool.t ->
    ?window:int ->
    producer:(unit -> 'a option) ->
    consumer:(int -> 'b -> unit) ->
    ('a -> 'b) ->
    unit
  (** [run pool ~producer ~consumer f] pulls items from [producer] until
      it yields [None], computes [f] on pool domains, and calls
      [consumer seq result] for sequence numbers [0, 1, 2, ...] in order.
      [producer] is only ever called from one domain at a time and needs
      no internal locking; [consumer] runs under the stream's emission
      lock (never concurrently with itself) but may run on any domain.
      With a 1-job pool this is exactly a sequential pull/compute/emit
      loop. If [f] raises, the exception of the lowest-sequence failing
      item is re-raised after in-flight work drains; results beyond that
      sequence are discarded unseen, and the producer stops early. A
      [consumer] exception is handled the same way, and so is a
      [producer] exception, which stands for the item it failed to
      yield: every earlier result is still emitted. Raises
      [Invalid_argument] if [window < 1]. *)

  val of_list : 'a list -> unit -> 'a option
  (** A producer that yields the elements of a list in order — the shim
      the list-batch façade feeds to {!run}. *)
end

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot parallel map over a list (pool created and shut down
    internally); input-order results. *)

val map_in : Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} on an existing pool, so long-lived drivers (the serve loop,
    repeated batches) pay the domain-spawn cost once and keep each
    domain's scratch arena warm across batches. Implemented as
    {!Stream.run} over {!Stream.of_list} with an accumulating consumer —
    the list API is a façade over the streaming core. *)

type compiled = {
  func : Ir.func;  (** φ-free output of the paper's coalescer *)
  stats : Core.Coalesce.stats;
}

val compile_one :
  ?options:Core.Coalesce.options -> ?obs:Obs.t -> Ir.func -> compiled
(** SSA construction followed by {!Core.Coalesce.run} with the calling
    domain's scratch arena — the per-task work of {!compile_batch}. *)

val compile_batch :
  ?jobs:int ->
  ?options:Core.Coalesce.options ->
  ?obs:Obs.t ->
  Ir.func list ->
  compiled list
(** Compile a batch of non-SSA functions through the New pipeline
    (SSA construction → coalescing destruction), in parallel across [jobs]
    domains. Results are in input order and byte-identical to compiling each
    function sequentially. When [obs] is given, each task records into its
    own private recorder (recorders are not thread-safe) and the per-task
    recorders are merged into [obs] at the join, in input order — so the
    aggregated counters are deterministic and no task ever contends on the
    caller's recorder. *)

val compile_batch_in :
  Pool.t ->
  ?options:Core.Coalesce.options ->
  ?obs:Obs.t ->
  Ir.func list ->
  compiled list
(** Like {!compile_batch} but on an existing pool, so repeated batches (a
    JIT loop, the throughput benchmark) pay the domain-spawn cost once. *)
