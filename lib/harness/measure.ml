let now_s = Obs.now_s

let wall fn =
  let t0 = now_s () in
  let v = fn () in
  (v, now_s () -. t0)

(* Heap high-water sampling: [Gc.quick_stat] is cheap (no heap walk) and
   its [heap_words] — the major heap's total size across all domains —
   only grows between compactions, so sampling it at the points where a
   workload's live set peaks (e.g. each streaming emission) gives a
   faithful high-water mark. *)
type heap_watch = { baseline : int; mutable peak : int }

let heap_watch () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  { baseline = w; peak = w }

let heap_sample hw =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > hw.peak then hw.peak <- w

let heap_peak_words hw =
  heap_sample hw;
  hw.peak

let heap_growth_words hw = heap_peak_words hw - hw.baseline
