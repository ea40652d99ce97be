(** Symmetric boolean matrix over a triangular bit vector.

    This is the classic Chaitin interference-graph representation the paper's
    baseline uses: for [n] names it allocates exactly [n*(n-1)/2] bits (plus a
    constant), which is what makes the Briggs-vs-Briggs* memory comparison of
    Table 1 meaningful. The diagonal is not stored; [get m i i] is [false]. *)

type t

val create : ?reuse:t -> int -> t
(** [create n] is the empty relation over [0 .. n-1]. With [reuse], a
    matrix that is no longer needed, its storage is cleared and taken over
    when it is long enough, and [reuse] must not be used afterwards. *)

val size : t -> int

val set : t -> int -> int -> unit
(** [set m i j] records the symmetric pair [(i, j)]. [i = j] is a no-op. *)

val get : t -> int -> int -> bool

val clear : t -> unit
(** Erase every pair, keeping the dimension. *)

val count : t -> int
(** Number of distinct pairs set. *)

val memory_bytes : t -> int
(** Bytes of the backing bit vector — the quantity Table 1 reports. *)

val pp : Format.formatter -> t -> unit
