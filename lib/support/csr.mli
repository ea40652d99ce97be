(** Compressed-sparse-row adjacency: a graph over dense node ids stored as
    two flat int arrays, so every neighbour query is an array read and a
    whole row is a contiguous slice — no per-query list or closure
    allocation, and traversals walk memory in order. This is the storage
    behind [Ir.Cfg]'s successor/predecessor queries. *)

type t
(** An immutable adjacency relation over nodes [0 .. num_nodes - 1]. *)

val build : num_nodes:int -> ((src:int -> dst:int -> unit) -> unit) -> t
(** [build ~num_nodes produce] materializes the relation in two passes:
    [produce emit] is called twice with the same edge stream — once to
    count row widths, once to fill rows — so the result is exactly sized
    with no intermediate per-node lists. Edges must be emitted in the same
    multiset both times (order may differ only in that rows are filled in
    emission order). *)

val num_nodes : t -> int
(** Number of nodes the relation was built over. *)

val num_edges : t -> int
(** Total number of (src, dst) pairs stored. *)

val degree : t -> int -> int
(** [degree g u] is the number of neighbours of [u]. O(1). *)

val get : t -> int -> int -> int
(** [get g u i] is the [i]-th neighbour of [u] (in emission order);
    raises [Invalid_argument] when [i] is out of [0 .. degree g u - 1]. *)

val iter_row : t -> int -> (int -> unit) -> unit
(** [iter_row g u f] applies [f] to each neighbour of [u] in emission
    order, allocation-free. *)

val fold_row : t -> int -> ('acc -> int -> 'acc) -> 'acc -> 'acc
(** [fold_row g u f init] folds [f] over [u]'s neighbours in emission
    order. *)

val row_list : t -> int -> int list
(** [row_list g u] is [u]'s neighbours as a fresh list (emission order).
    Allocates — for tests and cold paths; hot code uses {!iter_row}. *)

val equal : t -> t -> bool
(** Same node count and the same rows, neighbour for neighbour. O(nodes +
    edges); allocation-free. *)

val transpose : t -> t
(** The reverse relation: [v] is a neighbour of [u] in [transpose g] iff
    [u] is a neighbour of [v] in [g]. Each reversed row lists sources in
    increasing order. *)
