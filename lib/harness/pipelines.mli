(** The four SSA-to-CFG conversion pipelines of the paper's evaluation
    (Section 4), all starting from the same strict non-SSA function:

    - {b Standard}: pruned SSA with copy folding → naive φ-instantiation.
    - {b New}: pruned SSA with copy folding → the paper's coalescer.
    - {b Briggs} / {b Briggs_star}: Standard instantiation followed by the
      interference-graph build/coalesce loop {!Baseline.Ig_coalesce} (full
      graph vs copy-restricted graph; identical output).

    Each is a {!Pass.Spec} pipeline spec ({!spec_of}); the routes
    themselves are spelled only in the pass registry, and every compile
    here goes through {!Driver.Pipeline.compile_passes}. {!evaluate}
    derives the deterministic columns of Tables 1–5 from those compiles;
    timing them is the benchmark's business. *)

type pipeline =
  | Standard
  | New
  | Briggs
  | Briggs_star
  | Briggs_star_fused
      (** Deprecated alias of {!Briggs_star}: every function here treats it
          exactly as {!Briggs_star} (same name and spec). It remains only
          because [bench/e2e/layers.ml] matches on it, and goes with the
          next change to that benchmark. Not in {!all}. *)

val name : pipeline -> string
(** Display name, as used in table headers ("Standard", "Briggs*", ...). *)

val all : pipeline list
(** The paper's four conversions, in the order the tables list them. *)

val spec_of : pipeline -> string
(** The {!Pass.Spec} pipeline spec denoting this conversion, e.g.
    ["construct:pruned,coalesce"] for {!New} — the same spec string
    [repro-cli opt --passes] accepts. *)

val compile_spec : ?check:bool -> string -> Ir.func -> Driver.Pipeline.report
(** Parse a pipeline spec and compile through the pass manager
    ({!Driver.Pipeline.compile_passes}). Raises [Invalid_argument] on an
    unknown pass name or a shape-invalid spec. *)

(** {1 The evaluation}

    Every column of the paper's tables that does not depend on a clock,
    for one set of routines. Each route's spec is compiled once, with
    translation validation on; the memory models and the interference
    graph statistics come from the algorithms run directly on that
    compile's snapshots. *)

type route = {
  pipeline : pipeline;
  copies_inserted : int;
  copies_eliminated : int;
      (** the {!Obs} counters of compiling [spec_of pipeline] *)
  static_copies : int;  (** Table 5 *)
  model_bytes : int;
      (** Table 3's working-memory model: the converted IR plus the
          route's distinguishing structures *)
  graph : Baseline.Ig_coalesce.stats option;
      (** Briggs and Briggs*: the graph coalescer run on the Standard
          instantiation, for Table 1's per-round graph bytes *)
  copies_executed : int option;  (** Table 4; interpreted routines only *)
  allocation : Regalloc.stats option;
      (** downstream register allocation; interpreted routines only *)
}

type routine = {
  entry : Workloads.Suite.entry;
  ssa : Ir.func;  (** the ["ssa"] snapshot every route converts *)
  instantiation : Ir.func;
      (** the Standard route's output, which the graph coalescers rewrite *)
  routes : route list;  (** in {!all} order *)
  sreedhar_copies : int option;
      (** static copies of [construct:pruned,sreedhar-i]; interpreted
          routines only *)
}

type evaluation = {
  routines : routine list;  (** [kernels] then [large], in order *)
  memory_ratio : float;
      (** Briggs over Briggs* peak graph bytes, summed over the routines *)
}

val route_of : routine -> pipeline -> route
(** The routine's result for one pipeline of {!all}. *)

val evaluate :
  registers:int ->
  kernels:Workloads.Suite.entry list ->
  large:Workloads.Suite.entry list ->
  evaluation
(** Evaluate every routine. [kernels] are also run under the interpreter
    on their own arguments (which must give the source's result), allocated
    to [registers] colors (translation-validated, spill slab excluded), and
    converted by Sreedhar's Method I; [large] are only compiled.

    Raises [Failure] naming the routine when a result breaks the paper's
    invariants: any changed semantics or φ-node in an output; Briggs and
    Briggs* making different decisions (copies eliminated and left, graph
    rounds), or the copy-restricted graph being the bigger one; or the
    summed Briggs/Briggs* peak graph memory ratio falling below 10. *)
