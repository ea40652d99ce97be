(** Per-domain scratch arenas: pools of {!Bitset}, {!Bitset.Matrix} and
    [int array] buffers.

    The analyses allocate the same transient structures — liveness bit
    vectors, dominator numberings, worklists — for every function they
    process. In a batch-compilation loop those allocations dominate the
    constant factors, so passes acquire their buffers from an arena and
    release them when done; the next function of the same size reuses them
    instead of re-allocating.

    Bitset and array pools are keyed by exact capacity. Matrix buffers
    form one pool of any length: a matrix takes the shortest free buffer
    that holds it, so it may sit in a larger buffer than it needs
    ({!Bitset.Matrix.memory_bytes} counts its rows only), and the pool
    keeps a few buffers as long as the largest function seen rather than
    some of every size. Acquired
    bitsets and matrices are empty and arrays filled with the requested
    value, whether they came from the pool or were newly allocated.

    An arena is {e not} thread-safe: each domain must use its own (see
    {!domain}). Releasing a buffer twice, or using it after release, is a
    programming error and corrupts whoever acquires it next. *)

type t

val create : unit -> t
(** A fresh, empty arena. *)

val domain : unit -> t
(** The calling domain's arena (domain-local storage). Each domain gets its
    own instance, so no synchronisation is needed. *)

val acquire_bitset : t -> int -> Bitset.t
(** [acquire_bitset t n] is an empty bitset of capacity [n], reusing a
    released one when available. *)

val release_bitset : t -> Bitset.t -> unit

val acquire_matrix : t -> rows:int -> int -> Bitset.Matrix.t
(** [acquire_matrix t ~rows n] is a matrix of [rows] empty rows of capacity
    [n], over the shortest released buffer that holds it when there is one.
    Counted in the [bitset_hits]/[bitset_misses] stats. *)

val release_matrix : t -> Bitset.Matrix.t -> unit

val acquire_int_array : t -> int -> int -> int array
(** [acquire_int_array t n fill] is an [int array] of length [n] with every
    cell set to [fill], reusing a released one when available. *)

val release_int_array : t -> int array -> unit

type stats = {
  bitset_hits : int;  (** bitset and matrix acquisitions served from the pool *)
  bitset_misses : int;  (** bitset and matrix acquisitions that had to allocate *)
  array_hits : int;
  array_misses : int;
}

val stats : t -> stats
(** Hit/miss counts since creation (or the last {!clear}). *)

val clear : t -> unit
(** Drop every pooled buffer (they become garbage) and reset the stats. *)
