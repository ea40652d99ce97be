(** Multi-route observability reports: run a workload through each SSA
    conversion route with an {!Obs} recorder attached, and render the
    counter/timing vectors as paper-style tables. The counter half of a
    report is deterministic for a fixed input set, which is what the golden
    metrics-regression suite snapshots. *)

val default_routes : (string * Pass.Pipeline.t) list
(** The four routes of the paper's evaluation, each pruned SSA with copy
    folding into one conversion: ["standard"] (naive φ-instantiation),
    ["new"] (the paper's coalescer), ["briggs*"] (interference-graph
    coalescing), ["sreedhar-i"]. *)

val collect :
  ?jobs:int ->
  ?routes:(string * Pass.Pipeline.t) list ->
  Ir.func list ->
  Obs.report
(** Compile every function through every route (batched on the engine pool
    when [jobs] > 1) and snapshot one aggregated recorder per route. *)

val print : ?out:Format.formatter -> Obs.report -> unit
(** Two tables: operation counts (one column per route, one row per
    counter) and accumulated phase times, when any were recorded. *)
