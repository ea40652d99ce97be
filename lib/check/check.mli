(** Translation validation and differential-fuzzing support.

    The paper's value proposition is that graph-free coalescing is
    {e correct}: congruence classes never contain interfering names
    (Lemma 3.1, Theorem 2.2) and copy insertion handles the lost-copy, swap
    and virtual-swap problems (Sections 3.4–3.6). The structural validators
    ({!Ir.Validate}, {!Ssa.Ssa_validate}) cannot see semantic bugs, so this
    module turns every pipeline run into a self-checking one:

    - {!equiv} executes two functions on a deterministic battery of argument
      vectors with {!Interp.run} and compares return values and observable
      array memory — translation validation in the classic sense;
    - {!interference_audit} re-derives interference for every surviving
      congruence class with two independent oracles
      ({!Core.Interference.precise} and a full {!Baseline.Igraph} built over
      a lifetime-exact φ-free rendering of the program) and reports any
      intra-class interference — the paper's central invariant as a runtime
      assertion;
    - {!shrink} greedily minimizes a failing mini-language program into a
      small pretty-printable repro, for the differential fuzzer. *)

(** {1 Semantic equivalence} *)

(** What one execution observably did: returned (with the final non-zero
    array memory) or faulted. *)
type run_outcome =
  | Returned of Ir.value option * (string * Ir.value array) list
  | Faulted of Interp.error

type mismatch = {
  args : Ir.value list;  (** the argument vector that separates the two *)
  reference : run_outcome;
  candidate : run_outcome;
}

val pp_mismatch : Format.formatter -> mismatch -> unit
(** The separating arguments and both outcomes, for diagnostics. *)

val battery : ?vectors:int -> int -> Ir.value list list
(** [battery ~vectors arity] is the deterministic argument battery used by
    {!equiv}: [vectors] (default 8) vectors of [arity] integer values mixing
    small, negative and boundary-ish magnitudes. Deterministic in both
    parameters, so every failure is replayable. *)

val equiv :
  ?vectors:int ->
  ?array_size:int ->
  ?step_limit:int ->
  ?ignore_arrays:string list ->
  reference:Ir.func ->
  Ir.func ->
  (unit, mismatch) result
(** [equiv ~reference candidate] runs both functions on the same battery
    (they must have the same arity) and compares outcomes vector by vector.
    Arrays in [ignore_arrays] (e.g. the register allocator's spill slab) and
    arrays that were never written a non-zero value are excluded from the
    comparison. A vector on which the reference exceeds [step_limit] is
    skipped rather than reported; one on which only the candidate exceeds
    it is a mismatch (a conversion that made a terminating loop endless).
    Identical faults are considered equivalent. *)

(** {1 Interference audit} *)

type interference = {
  cls : Ir.reg list;  (** the offending congruence class *)
  u : Ir.reg;
  v : Ir.reg;  (** the interfering pair inside [cls] *)
  oracle : string;  (** which oracle saw it: ["precise"] or ["igraph"] *)
}

val pp_interference : Format.formatter -> interference -> unit
(** The class, the offending pair, and the oracle that caught it. *)

val interference_audit :
  ?options:Core.Coalesce.options ->
  ?classes:Ir.reg list list ->
  Ir.func ->
  (unit, interference) result
(** [interference_audit ssa] recomputes the congruence classes
    {!Core.Coalesce.run} would merge for the SSA function and asserts, with
    both oracles, that no two members of a surviving class interfere:
    {!Core.Interference.precise} on the (critical-edge-split) SSA itself,
    and {!Baseline.Igraph.build_full} over its Sreedhar Method-I
    instantiation — the one φ-free rendering that preserves every original
    name's SSA lifetime exactly, so the classical Chaitin graph is an
    independent ground truth for class members. Returns the first violation
    found. [classes] overrides the recomputation, to audit the exact
    classes some pass claims to have merged (or to seed a known-bad class
    in tests). *)

(** {1 Shrinking} *)

val shrink :
  ?max_rounds:int ->
  keep:(Frontend.Ast.func -> bool) ->
  Frontend.Ast.func ->
  Frontend.Ast.func
(** [shrink ~keep f] greedily minimizes [f] while [keep] holds: it
    repeatedly tries strictly smaller candidates — dropping a statement,
    replacing a conditional or loop by one of its branches, replacing an
    expression by a subexpression or a literal — and commits to the first
    candidate on which [keep] still returns [true], until no candidate
    survives (or [max_rounds] candidates-committed is reached; the default
    is effectively unbounded). [keep] must hold of [f] itself; exceptions
    escaping [keep] count as [false]. The result is printable with
    {!Frontend.Ast.pp_func} / {!Frontend.Ast.func_to_source}. *)

(** {1 Pipeline hook} *)

exception Failed of string
(** Raised by the [_exn] variants; carries a rendered diagnostic. *)

val equiv_exn :
  ?vectors:int ->
  ?ignore_arrays:string list ->
  reference:Ir.func ->
  Ir.func ->
  unit

val interference_audit_exn :
  ?options:Core.Coalesce.options -> Ir.func -> unit
(** {!interference_audit} raising {!Failed} on a violation. *)
