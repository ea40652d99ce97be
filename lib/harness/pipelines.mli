(** The four SSA-to-CFG conversion pipelines of the paper's evaluation
    (Section 4), all starting from the same strict non-SSA function:

    - {b Standard}: pruned SSA with copy folding → naive φ-instantiation.
    - {b New}: pruned SSA with copy folding → the paper's coalescer.
    - {b Briggs} / {b Briggs_star}: Standard instantiation followed by the
      interference-graph build/coalesce loop {!Baseline.Ig_coalesce} (full
      graph vs copy-restricted graph; identical output).

    Each conversion reports the modeled peak bytes of its distinguishing
    data structures, which is what Tables 1 and 3 compare. *)

type pipeline =
  | Standard
  | New
  | Briggs
  | Briggs_star
  | Briggs_star_fused
      (** Deprecated alias of {!Briggs_star}: every function here treats it
          exactly as {!Briggs_star} (same name, spec and conversion). It
          remains only because [bench/e2e/layers.ml] matches on it, and
          goes with the next change to that benchmark. Not in {!all}. *)

val name : pipeline -> string
(** Display name, as used in table headers ("Standard", "Briggs*", ...). *)

val all : pipeline list
(** The paper's four conversions, in the order the tables list them. *)

type result = {
  func : Ir.func;  (** φ-free, validated *)
  static_copies : int;
  aux_bytes : int;
  ig_rounds : int;  (** graph-build passes; 0 for Standard/New *)
  ig_bytes_per_round : int list;
  ig_peak_nodes : int;  (** largest graph built in any round; 0 for Standard/New *)
  ig_peak_edges : int;
      (** undirected interference edges of that build — with
          {!ig_bytes_per_round}, the tables' peak-graph-size columns *)
}

val convert : ?scratch:Support.Scratch.t -> pipeline -> Ir.func -> result
(** Run the whole conversion (SSA construction included). [scratch] lets
    the New pipeline reuse analysis buffers across calls on one domain. *)

val dynamic_copies : result -> args:Ir.value list -> int
(** Execute under the interpreter and count copies — the Table 4 metric. *)

val spec_of : pipeline -> string
(** The {!Pass.Spec} pipeline spec denoting this conversion, e.g.
    ["construct:pruned,coalesce"] for {!New} — the same spec string
    [repro-cli opt --passes] accepts, so the harness's four named
    pipelines and arbitrary CLI orderings go through one door
    ([{!convert} p f].func = [(compile_spec (spec_of p) f).output]). *)

val compile_spec : ?check:bool -> string -> Ir.func -> Driver.Pipeline.report
(** Parse a pipeline spec and compile through the pass manager
    ({!Driver.Pipeline.compile_passes}). Raises [Invalid_argument] on an
    unknown pass name or a shape-invalid spec. *)
