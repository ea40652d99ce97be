(** The paper's algorithm: copy coalescing and live-range identification
    during SSA destruction, without an interference graph (Section 3).

    The pipeline:
    + split critical edges, compute dominance and φ-aware liveness;
    + {b union} φ targets with their arguments (union-find), refusing an
      argument whenever one of the five Section-3.1 liveness filters
      detects an interference — a refused position later becomes a copy;
    + enforce the rename invariant that a block contributes at most one
      φ target per congruence class (the Section-3.6.1 "virtual swap"
      interferences exposed by renaming);
    + build a {b dominance forest} per congruence class and walk its edges
      (Figure 2): a parent live out of a child's defining block definitely
      interferes — detach the cheaper member (paper's victim rule);
      a parent merely live into the child's block (or sharing it) is a
      {b local-interference} candidate;
    + resolve local candidates with one backward walk per block pair
      (Section 3.4);
    + {b rename} every surviving class member to a single name
      (Section 3.5) and rewrite: each φ-edge whose source and target ended
      in different classes becomes a pending copy in the per-block Waiting
      lists, materialized as sequentialized parallel copies (Section 3.6).

    Total work is O(n·α(n)) in the number of φ arguments, plus the liveness
    analysis it consumes. *)

type options = {
  use_filters : bool;
      (** Apply the five Section-3.1 interference filters while unioning.
          With [false] every argument is unioned optimistically and all the
          work falls to the forest walk — an ablation mode; results stay
          correct. *)
  victim_heuristic : bool;
      (** Use the paper's victim rule (detach the child when the parent is
          otherwise clean and the child needs fewer copies); with [false]
          always detach the parent, Figure 2's fallback arm. *)
}

val default_options : options
(** The paper's configuration: filters on, victim rule on. *)

type stats = {
  classes : int;  (** congruence classes with ≥ 2 members after unioning *)
  class_members : int;
  filter_refusals : int;  (** φ-arg positions refused by the 5 filters *)
  const_args : int;  (** φ arguments that are constants (always copies) *)
  rename_detached : int;  (** members detached by the rename invariant *)
  forest_detached : int;  (** members detached by the forest walk *)
  local_pairs : int;  (** pairs deferred to the local-interference pass *)
  local_detached : int;
  copies_inserted : int;  (** actual [Copy] instructions emitted *)
  temps_inserted : int;  (** cycle-breaking temporaries *)
  aux_memory_bytes : int;
      (** bytes of the auxiliary structures: liveness vectors, union-find,
          forest nodes — the New column of Table 3's memory story *)
}

val run :
  ?options:options ->
  ?scratch:Support.Scratch.t ->
  ?facts:Analysis.Facts.t ->
  ?obs:Obs.t ->
  Ir.func ->
  Ir.func * stats
(** [run f] destroys SSA with coalescing. [f] must be regular SSA (pass
    {!Ssa.Ssa_validate}); critical edges are split internally. The result
    has no φ-nodes.

    [facts] are [f]'s CFG and dominator tree, as {!Ssa.Ssa_validate.run_facts}
    returns them; without them the CFG is built here. Edge splitting
    updates the CFG (and a carried tree) to the split function rather than
    rebuilding it, and the analysis and rewrite halves share the result.
    Every analysis buffer (liveness vectors, dominator numberings unless a
    tree is carried, cost table) is acquired from — and released back to —
    [scratch], by default the calling domain's arena
    ({!Support.Scratch.domain}), so repeated calls on one domain stop
    re-allocating; results are identical whichever arena is used. The
    arena must belong to the calling domain.

    When [obs] is given, every phase charges its operation counts to it:
    the per-filter refusals, φ-args unioned, forest nodes and interference
    checks, local-interference checks and detaches, surviving classes, and
    the copies inserted/eliminated by the rewrite. The recorder never
    changes the result. *)

val run_exn :
  ?options:options ->
  ?scratch:Support.Scratch.t ->
  ?facts:Analysis.Facts.t ->
  ?obs:Obs.t ->
  Ir.func ->
  Ir.func

val congruence_classes : ?options:options -> Ir.func -> Ir.reg list list
(** The final classes (each with ≥ 2 members) that {!run} would merge —
    the "live-range identification" half of the paper's title. Exposed for
    testing: members of one class must never interfere
    ({!Interference.precise}). Critical edges are split internally; register
    identities are unaffected by the split, but interference oracles should
    run on an explicitly split copy of the input. *)
