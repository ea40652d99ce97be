(** A Chaitin/Briggs graph-coloring register allocator.

    This is the consumer the paper positions its algorithm for ("design and
    implementation of a fast register-allocation algorithm that uses the
    results presented in this paper", Section 5): the coalescers have
    already identified live ranges, so the allocator here only builds the
    interference graph, simplifies with Briggs' optimistic coloring, and
    spills with classic loop-depth-weighted costs.

    Spilled values live in a reserved side array ([spill_array]), so
    allocated code still runs under {!Interp} — which is how the tests prove
    an allocation correct end-to-end. *)

type spill_metric = Cost_over_degree | Plain_cost

type options = {
  registers : int;  (** the k of k-coloring; ≥ 2 *)
  spill_metric : spill_metric;
  max_rounds : int;  (** spill-and-retry rounds before giving up *)
}

val default_options : options
(** 8 registers, [Cost_over_degree] spill metric, 16 rounds. *)

type stats = {
  rounds : int;
  spilled_ranges : int;
  spill_loads : int;
  spill_stores : int;
  colors_used : int;
}

type result = {
  func : Ir.func;
      (** rewritten so that every register id is a color in
          [0 .. colors_used-1] *)
  assignment : int array;
      (** pre-rewrite register → color (index into the {e input}'s register
          space; spill temporaries are appended) *)
  stats : stats;
  spill_array : string;
      (** the array actually backing this function's spill slots — the
          module-level {!spill_array} base name, suffixed if the source
          program already uses it *)
}

exception Out_of_rounds of string

val spill_array : string
(** Base name of the reserved array backing spill slots. The name actually
    used for a given function is [result.spill_array]: it is guaranteed
    fresh (never an array the source program loads or stores), so user data
    can never alias spill slots. *)

val try_color :
  options:options ->
  is_temp:(int -> bool) ->
  Ir.func ->
  Baseline.Igraph.t ->
  float array ->
  (int array, int list) Stdlib.result
(** One simplify/select attempt with a low-degree worklist (min-heap), used
    by {!run}. [Ok colors] maps every register to a color below
    [options.registers]; [Error spills] lists the live ranges Briggs'
    optimistic select could not color. [is_temp] marks spill temporaries
    (considered for spilling only when nothing else remains); the float
    array gives per-register spill costs. *)

val try_color_reference :
  options:options ->
  is_temp:(int -> bool) ->
  Ir.func ->
  Baseline.Igraph.t ->
  float array ->
  (int array, int list) Stdlib.result
(** The pre-worklist simplify loop (full rescans, O(n²)), kept as the
    oracle for the differential test that pins {!try_color} to identical
    colorings. *)

val run : ?options:options -> ?facts:Analysis.Facts.t -> Ir.func -> result
(** The input must be φ-free. Raises {!Out_of_rounds} if spilling fails to
    converge within [max_rounds]. [facts] are the input's (a pass manager
    hands the output validator's): their CFG serves the loop weights and
    every round, since rounds only rewrite block bodies, and their tree,
    when known, the loop depths. Without them the CFG is built once. *)
