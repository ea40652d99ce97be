(** Seeded random structured-program generator.

    Produces mini-language ASTs that always terminate (loops are bounded
    counters) and never fault (no division, indices reduced modulo the
    array size), so any two pipeline outputs can be executed and compared.
    Programs are built from the shapes that stress coalescing: copy chains,
    swaps inside conditionals, rotations inside loops, and nested loop
    counters.

    The generator is deterministic in [seed]: property tests can shrink by
    seed, and the scaling benchmark can sweep [size]. *)

type config = {
  seed : int;
  size : int;  (** rough number of statements to generate *)
  max_depth : int;  (** nesting limit for loops/conditionals *)
  num_vars : int;  (** size of the scalar variable pool *)
}

val default : config
(** Seed 42, size 40, depth 3, 8 variables. *)

val generate : config -> Frontend.Ast.func
(** The function takes parameters [n] and [a]. *)

val generate_ir : config -> Ir.func
(** {!generate} followed by lowering. *)

val generate_numeric : config -> Frontend.Ast.func
(** Arithmetic-heavy programs shaped like the paper's largest inputs
    (fpppp, twldrv): long runs of deep expression trees inside a couple of
    bounded loops, so almost every register is a single-use temp and only a
    tiny fraction of the name universe is copy-related. This is the regime
    where the copy-restricted Briggs* interference graph is orders of
    magnitude smaller than the full one; {!generate}'s coalescing-stress
    mix cannot produce it. [max_depth] is unused. Deterministic in [seed];
    the function takes parameters [n] and [a]. *)

val generate_numeric_ir : config -> Ir.func
(** {!generate_numeric} followed by lowering. *)

(** {1 Adversarial CFG shapes}

    Raw-IR families built directly with {!Ir.Builder} rather than through
    the AST, because the structured generator can only produce reducible,
    shallowly-joined graphs — it never triggers the quadratic tail of the
    iterative (CHK) dominator algorithm. All shapes are strict, validate
    cleanly, and terminate under the interpreter. *)

type shape =
  | Comb
      (** Two deep rails joined at every rung: each join's idom is the
          entry while its predecessors sit ever deeper in the dominator
          tree, so the CHK intersect walk costs O(n) per rung — O(n²)
          overall. *)
  | Skewed_ladder
      (** One deep rail feeding a flat join chain — the maximally skewed
          intersect: one finger is always at depth ~1, the other at depth
          ~i. *)
  | Dense_diamonds
      (** A chain of 4-wide diamonds (branch trees two deep re-joining):
          dense joins that stress dominance-frontier construction and the
          liveness meet. *)
  | Deep_loop_nest
      (** Loops nested [size] deep with trip count 2: one long dominator
          spine where every header is a join with a back edge. Runs
          2{^ size} innermost iterations, so keep [size] modest when the
          result is interpreted. *)

val shape_name : shape -> string
(** Snake-case name used in kernel and benchmark labels. *)

val shapes : shape list
(** All adversarial shapes, in declaration order. *)

val adversarial : shape -> size:int -> Ir.func
(** Build the shape at the given size (rungs / diamonds / nesting depth;
    clamped to at least 1). Deterministic — no randomness is involved. *)
