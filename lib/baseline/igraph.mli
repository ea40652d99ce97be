(** Chaitin-style interference graphs over φ-free code.

    Names are nodes; an edge means the two names are simultaneously live
    somewhere (with Chaitin's refinement that a copy [d := s] does not by
    itself make [d] and [s] interfere). The representation is the classic
    triangular bit matrix plus adjacency lists, so
    {!memory_bytes} reports exactly the quantity the paper's Table 1
    compares: n²∕2 bits over the chosen name universe.

    The {b full} build uses every register of the function — what Briggs'
    original allocator does. The {b restricted} build (the paper's Briggs*
    improvement, Section 4.1) takes only the names involved in copies and
    keeps a reg→compact-index mapping array, shrinking the matrix
    quadratically while answering the only queries the coalescer makes. *)

type t

val build_full : Ir.func -> Ir.Cfg.t -> Analysis.Liveness.t -> t
(** Graph over all registers. The function must have no φ-nodes. *)

val build_restricted :
  Ir.func -> Ir.Cfg.t -> Analysis.Liveness.t -> members:Ir.reg list -> t
(** Graph restricted to [members]; edges between non-members are not
    recorded. *)

val interferes : t -> Ir.reg -> Ir.reg -> bool
(** For the restricted build both registers must be members. *)

val merge : t -> into:Ir.reg -> Ir.reg -> unit
(** [merge t ~into:a b] adds all of [b]'s edges to [a] — Chaitin's in-place
    row-OR when two live ranges are coalesced, keeping the (conservative)
    graph usable for the rest of the pass. O(nodes). *)

val num_nodes : t -> int
val num_edges : t -> int
(** Total number of undirected interference edges. *)

val neighbors : t -> Ir.reg -> Ir.reg list
(** Interfering registers, ascending. O(nodes) per query (a row scan of the
    bit matrix); usable only on the full build, where node ids are register
    ids. *)

val degree : t -> Ir.reg -> int

val memory_bytes : t -> int
(** Bit-matrix bytes plus (for the restricted build) the mapping array. *)

val matrix_bytes : t -> int
(** Bit-matrix bytes only. *)
