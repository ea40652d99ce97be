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
(** [set m i j] records the symmetric pair [(i, j)]. [i = j] is a no-op;
    otherwise an index out of range raises [Invalid_argument]. *)

val get : t -> int -> int -> bool
(** [get m i j] tells whether the pair [(i, j)] is recorded; [false] when
    [i = j], and [Invalid_argument] as for {!set}. *)

val clear : t -> unit
(** Erase every pair, keeping the dimension. *)

val count : t -> int
(** Number of distinct pairs set. *)

val memory_bytes : t -> int
(** Bytes of the backing bit vector — the quantity Table 1 reports. *)

val pp : Format.formatter -> t -> unit

(** {1 Row operations}

    Row [i] is stored in two parts: its pairs with smaller nodes are [i]
    contiguous bits, walked a byte or a word at a time; its pairs with
    larger nodes x are one bit per x, at a stride that grows by one each
    step. Each operation checks its row indices once on entry and raises
    [Invalid_argument] if one is out of range; the walk itself is
    unchecked. *)

val union_row : t -> into:int -> int -> int
(** [union_row m ~into:a b] records [(a, x)] for every [x <> a] paired
    with [b] — the row OR that unites two live ranges — and returns the
    number of pairs it newly recorded. O(size) bit tests at worst, with
    zero words of [b]'s contiguous part skipped whole, plus one
    test-and-set per pair of [b]. [a = b] changes nothing and returns
    [0]. *)

val union_set : ?map:int array -> t -> int -> Bitset.t -> int
(** [union_set m i s] records [(i, x)] for every [x <> i] in [s] — one
    definition's interferences with the set live across it — and returns
    the number of pairs it newly recorded. With [map], each element [r] of
    [s] stands for node [map.(r)] instead, and elements mapped below [0]
    are skipped. Raises [Invalid_argument] if [s] is wider than [m]
    without [map], if [map] is shorter than [s]'s capacity, or if an
    element maps at or above [size m]. *)

val iter_row : (int -> unit) -> t -> int -> unit
(** [iter_row f m i] calls [f x] for every [x] paired with [i], in
    increasing order. *)

val row_count : t -> int -> int
(** [row_count m i] is the number of nodes paired with [i], counted
    without allocating. *)
