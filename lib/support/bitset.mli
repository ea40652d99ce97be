(** Fixed-capacity sets of small integers backed by a [Bytes.t] bit vector
    of [⌈capacity/8⌉] bytes. The bulk operations ({!union_into},
    {!inter_into}, {!diff_into}, {!iter}, {!is_empty}, {!cardinal}) work a
    64-bit word at a time.

    Used for the transient live sets of interference-graph construction and
    the local-interference walk; the per-block sets of the dataflow analyses
    are rows of a {!Matrix}. Capacity is fixed at creation; elements are
    [0 .. capacity-1]. A set may be a view of a matrix row: it then shares
    the matrix's storage, and writes through it show in the row. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val capacity : t -> int

val mem : t -> int -> bool
(** Membership test, O(1). *)

val add : t -> int -> unit
(** Insert an element; no-op if already present. *)

val remove : t -> int -> unit
(** Delete an element; no-op if absent. *)

val clear : t -> unit
(** Empty the set in place, keeping its capacity. *)

val fill : t -> unit
(** [fill s] makes [s] the full set [0 .. capacity-1] in place: a byte
    fill, O(capacity/8), rather than one {!add} per element. *)

val copy : t -> t
(** An independent set with the same contents and capacity. *)

val cardinal : t -> int
(** Number of elements. O(capacity/64) word steps. *)

val equal : t -> t -> bool
(** Structural equality of contents; capacities must match. *)

val union_into : dst:t -> t -> bool
(** [union_into ~dst src] adds all of [src] to [dst]; returns [true] iff
    [dst] changed. Capacities must match. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] removes all of [src] from [dst]. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] keeps in [dst] only elements also in [src]. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with the contents of [src]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val next : t -> int -> int
(** [next s i] is the least element of [s] at or above [i], or [-1] if
    there is none: a loop over [s] that needs no closure. Zero words are
    skipped whole. Raises [Invalid_argument] if [i < 0]. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** The elements in increasing order. *)

val is_empty : t -> bool
(** [true] iff the set has no elements, O(capacity/64) word steps. *)

val of_list : int -> int list -> t
(** [of_list n xs] is the capacity-[n] set of the elements of [xs]. *)

val memory_bytes : t -> int
(** Bytes of backing storage, for the memory-accounting experiments. *)

val pp : Format.formatter -> t -> unit

(** [rows] sets of one capacity stored back to back in one buffer: row [r]
    is the [⌈capacity/8⌉] bytes at [r × ⌈capacity/8⌉]. A dataflow analysis
    keeps one matrix per per-block set (live-in, live-out, gen, kill), so a
    function costs one buffer per matrix, however many blocks it has. Row
    operations take a matrix and a row number per operand and run the same
    word kernels as the set operations; none allocates. *)
module Matrix : sig
  type set := t
  type t

  val on_buffer : Bytes.t -> rows:int -> int -> t
  (** [on_buffer b ~rows n]: [rows] empty rows of capacity [n] over the
      first [rows × ⌈n/8⌉] bytes of [b] (which it clears); the rest of [b]
      is not touched. Buffers come from a {!Scratch} arena. *)

  val buffer : t -> Bytes.t
  (** The backing buffer, for returning it to an arena. *)

  val memory_bytes : t -> int
  (** [rows × ⌈capacity/8⌉]: the rows' bytes, whatever the buffer's size. *)

  val row : t -> int -> set
  (** A set view of one row, sharing its storage (one small record). *)

  val mem : t -> int -> int -> bool
  (** [mem m r i]: is [i] in row [r]? *)

  val add : t -> int -> int -> unit
  (** [add m r i] puts [i] in row [r]. *)

  val clear : t -> int -> unit
  (** Empty one row. *)

  val fill : t -> unit
  (** Every row becomes the full set [0 .. capacity-1]. *)

  (** The binary row operations below name the destination first, as
      [matrix row]; both operands' capacities must match. *)

  val blit : t -> int -> t -> int -> unit
  (** [blit d rd s rs] overwrites row [rd] of [d] with row [rs] of [s]. *)

  val union_into : t -> int -> t -> int -> bool
  (** [union_into d rd s rs] adds row [rs] of [s] to row [rd] of [d];
      [true] iff it changed. *)

  val union_diff_into : t -> int -> t -> int -> t -> int -> bool
  (** [union_diff_into d rd s rs m rm] adds (row [rs] of [s]) minus (row
      [rm] of [m]) to row [rd] of [d], without a temporary; [true] iff it
      changed. The transfer function of a backward dataflow problem. *)

  val inter_into : t -> int -> t -> int -> unit
  (** [inter_into d rd s rs] keeps in row [rd] of [d] only the elements
      also in row [rs] of [s]. *)

  val equal : t -> int -> t -> int -> bool
  (** [equal a ra b rb]: do the two rows hold the same elements? *)

  val scatter_row : t -> int -> map:int array -> off:int -> set -> unit
  (** [scatter_row m r ~map ~off s] adds [map.(off + i)] to [s] for every
      element [i] of row [r]: a row over a dense index, written back in the
      coordinates the index maps to. Zero words are skipped whole and
      nothing is allocated. Raises [Invalid_argument] if a mapped element
      is outside [s]. *)
end
