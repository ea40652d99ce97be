(** Clock readings and heap high-water sampling for the benches and the
    CLI's throughput lines.

    Every time in the repository comes from {!now_s}, the monotonic clock
    behind {!Obs.now_s}. The paper's tables take repeated samples of it
    and report the median and quartiles ([bench/main.ml]); the repository
    benchmark does the same per item ([bench/e2e]). *)

val now_s : unit -> float
(** Monotonic clock reading in seconds. *)

val wall : (unit -> 'a) -> 'a * float
(** [wall f] runs [f] once and returns its result with the elapsed wall
    time in seconds. *)

(** {1 Heap high-water sampling}

    The bounded-memory claims (streaming corpus compilation) are stated
    in {e peak live words}: the high-water mark of [Gc.quick_stat]'s
    [heap_words] over a run. [quick_stat] is cheap — no heap walk — so
    the watch can be sampled at every streaming emission without
    perturbing what it measures. *)

type heap_watch

val heap_watch : unit -> heap_watch
(** Start watching from the current heap size. A caller that wants the
    baseline to be the residual live set, not the previous phase's
    garbage, compacts the heap first. *)

val heap_sample : heap_watch -> unit
(** Fold the current heap size into the high-water mark. Call wherever
    the workload's live set peaks — e.g. from a streaming consumer. *)

val heap_peak_words : heap_watch -> int
(** One final {!heap_sample}, then the high-water mark in words since the
    watch was created. *)

val heap_growth_words : heap_watch -> int
(** {!heap_peak_words} minus the baseline — the watch's own allocation
    high-water, robust to whatever was live before it. *)
