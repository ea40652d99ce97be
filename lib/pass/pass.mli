(** First-class pass manager: typed passes, a registry, declarative
    pipeline specs, and one middleware-wrapped runner.

    The backend used to be a closed record of booleans interpreted by a
    hand-written [Driver.Pipeline.compile]; every new phase meant editing
    the driver, the CLI and the batch engine by hand. This module makes
    the phase the unit of composition instead:

    - a {b pass} ({!t}) is a named transformation with a {!shape} that
      states which IR contract it consumes and produces (CFG → SSA,
      SSA → SSA, SSA → φ-free CFG, CFG → CFG);
    - a {b pipeline} is a shape-checked [t list] ({!Pipeline.validate}):
      construction first, SSA transforms in any order, exactly one
      terminal conversion route, CFG finishers after;
    - the {b runner} ({!run}) wraps every pass in the same middleware —
      obs span charging, structural validation of the produced IR
      ({!Ssa.Ssa_validate} for SSA shapes, {!Ir.Validate} for CFG
      shapes), stage snapshot capture, and the deferred [--check]
      translation-validation hooks — so a pass body is nothing but its
      transformation and a one-line note;
    - the {b registry} ({!Registry}) maps spec names to pass builders and
      powers the {!Spec} grammar
      ["construct:pruned,copy-prop,simplify,dce,coalesce"] that the CLI,
      the harness and the tests all parse through one door. *)

(** {1 Passes} *)

type ctx = {
  input : Ir.func;  (** the original pre-pipeline function *)
  scratch : Support.Scratch.t option;
      (** per-domain analysis-buffer arena, threaded to the coalescer *)
  obs : Obs.t option;
  check : bool;  (** translation validation requested for this run *)
}

(** What a pass consumes and produces; the middleware picks the matching
    structural validator and {!Pipeline.validate} enforces composition
    order. *)
type shape =
  | Construct  (** strict CFG → SSA; must come first, exactly once *)
  | Transform  (** SSA → SSA, any number, any order *)
  | Conversion  (** SSA → φ-free CFG; exactly one, after the transforms *)
  | Finish  (** φ-free CFG → CFG (e.g. register allocation), at the end *)

type t = {
  name : string;  (** registry/spec name, e.g. ["copy-prop"] *)
  stage : string;
      (** label recorded in reports — usually [name]; ["construct"]
          records the historical ["ssa"], ["briggs-star"] ["briggs*"] *)
  span : string;
      (** obs span charged with the run; all conversions share
          ["convert"] so route timings stay comparable *)
  key : string;
      (** canonical spec item {e including arguments} (["regalloc:8"],
          ["construct:pruned+nofold"]) — the pass's contribution to
          {!Pipeline.fingerprint}, which cache keys and spec
          round-tripping rely on. Two passes with equal [key] must
          denote the same transformation. *)
  shape : shape;
  run : ctx -> Ir.func -> Ir.func * string;  (** returns (output, note) *)
  check_audit : (ctx -> Ir.func -> unit) option;
      (** under [--check], called with the {e input} of this pass inside
          the final ["check"] span (the coalescer's interference audit) *)
  ignore_arrays : string list;
      (** side arrays the final equivalence check must ignore (the
          allocator's private spill slab) *)
}

val ssa_pass :
  name:string -> ?doc:string -> (Ir.func -> Ir.func * string) -> t
(** Wrap a plain [Ir.func -> Ir.func * note] SSA transformation as a
    {!Transform} pass (span = stage = [name]) and register it, so
    downstream code can extend the pipeline without touching this
    library. Raises [Invalid_argument] if [name] is already registered. *)

(** {2 The built-in passes} *)

val construct :
  ?pruning:Ssa.Construct.pruning -> ?fold_copies:bool -> unit -> t
(** SSA construction; stage name ["ssa"]. Spec forms:
    [construct], [construct:pruned], [construct:semi-pruned],
    [construct:minimal], each optionally suffixed [+nofold]
    (e.g. [construct:pruned+nofold]). *)

val copy_prop : t
(** {!Ssa.Simplify.propagate}: copy propagation and phi collapse without
    folding — the pass that proves the extension point. *)

val simplify : t
(** {!Ssa.Simplify}: folding, identities, copy propagation, phi collapse. *)

val dce : t
(** {!Ssa.Dce}: dead-code elimination on SSA def-use chains. *)

val coalesce : ?options:Core.Coalesce.options -> unit -> t
(** The paper's graph-free coalescing conversion. Spec forms: [coalesce],
    [coalesce:no-filters], [coalesce:no-victim],
    [coalesce:no-filters+no-victim]. Under [--check] it contributes the
    interference audit of its input SSA. *)

val standard : t
(** Naive phi instantiation after edge splitting; no coalescing. *)

val sreedhar_i : t
(** Sreedhar et al.'s Method I: correct by construction, most copies. *)

val graph : Baseline.Ig_coalesce.variant -> t
(** Spec names [briggs] and [briggs-star]: naive instantiation followed by
    {!Baseline.Ig_coalesce}'s rewrite-per-round build/coalesce loop, over
    the full or the copy-restricted graph. This is the one graph coalescer;
    neither spec name takes an argument. *)

val regalloc : registers:int -> t
(** Chaitin/Briggs allocation to [registers] colors; spec form
    [regalloc:K]. Contributes {!Regalloc.spill_array} to the equivalence
    check's ignore list. *)

(** {1 Pipelines} *)

module Pipeline : sig
  type nonrec t = t list

  val validate : t -> (unit, string) result
  (** Shape-check: non-empty, a {!Construct} first (and only first),
      {!Transform}s before the single {!Conversion}, {!Finish}es after
      it, and nothing else. The error is a human-readable sentence. *)

  val fingerprint : t -> string
  (** The canonical spec of the pipeline with arguments reconstructed
      (comma-joined pass [key]s) — parseable by {!Spec.parse} back to an
      equivalent pipeline, and the pipeline half of the compile cache's
      content address. *)
end

(** {1 Running} *)

type stage = {
  name : string;  (** the pass's [stage] label *)
  func : Ir.func;  (** snapshot after the pass *)
  note : string;  (** the pass's one-line statistics summary *)
}

type report = {
  input : Ir.func;
  output : Ir.func;
  stages : stage list;  (** in execution order *)
}

val run :
  ?check:bool ->
  ?scratch:Support.Scratch.t ->
  ?obs:Obs.t ->
  Pipeline.t ->
  Ir.func ->
  report
(** Validate the pipeline shape (raising [Invalid_argument] on a
    malformed one) and the input function, then run each pass under the
    middleware: obs span, structural validation of the output, stage
    capture, check-hook deferral. The input must be a strict, φ-free CFG
    (the coalescer is only correct on SSA built from one): a function
    that fails {!Ir.Validate.run} or carries a φ-node raises
    {!Ir.Validate.Invalid}. A pass whose output fails its shape's
    validator raises [Failure] naming the pass — a compiler fault, not an
    input error. With [check], the deferred audits and
    the {!Check.equiv_exn} of output against input (ignoring every
    pass's [ignore_arrays]) run inside a final ["check"] span —
    behaviourally identical to the historical hand-written driver. *)

(** {1 Registry and spec parsing} *)

module Registry : sig
  type entry = {
    name : string;
    doc : string;  (** one-liner for listings and error messages *)
    arg : string option;  (** argument grammar, e.g. [Some "K"]; [None] = no argument *)
    build : string option -> (t, string) result;
        (** build from the optional [:arg] part of a spec item *)
  }

  val register : entry -> unit
  (** Raises [Invalid_argument] on a duplicate name. *)

  val find : string -> entry option

  val names : unit -> string list
  (** Registered names, sorted. *)

  val all : unit -> entry list
  (** Registered entries, sorted by name. *)

  val suggest : string -> candidates:string list -> string option
  (** Closest candidate by edit distance, for "did you mean" hints;
      [None] when nothing is plausibly close. *)
end

module Spec : sig
  val grammar : string
  (** One-paragraph description of the spec syntax, for [--help] text. *)

  val parse : string -> (Pipeline.t, string) result
  (** Parse a comma-separated pipeline spec, e.g.
      ["construct:pruned,copy-prop,simplify,dce,coalesce"]. Each item is
      [name] or [name:arg]; unknown names produce an error carrying a
      "did you mean" hint plus the registered-pass listing, and the
      resulting pipeline is shape-checked with {!Pipeline.validate}. *)

  val parse_exn : string -> Pipeline.t
  (** {!parse} for specs fixed in the program text: raises
      [Invalid_argument] with the parse error. *)

  val to_string : Pipeline.t -> string
  (** The canonical spec of a pipeline, arguments included — an alias of
      {!Pipeline.fingerprint}; [parse (to_string p)] yields an
      equivalent pipeline. *)
end
