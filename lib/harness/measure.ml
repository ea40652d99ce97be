open Bechamel

let ns_per_run ?(quota_s = 0.25) ~name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg
      ~quota:(Time.second quota_s)
      ~limit:2000 ~stabilize:false ~start:1 ()
  in
  let elts = Test.elements test in
  match elts with
  | [ elt ] -> (
    let measures = [ Toolkit.Instance.monotonic_clock ] in
    let raw = Benchmark.run cfg measures elt in
    let ols =
      Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
    in
    let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
    match Analyze.OLS.estimates result with
    | Some [ est ] -> est
    | Some _ | None ->
      (* Fall back to a direct sample if the fit failed. *)
      let t0 = Monotonic_clock.now () in
      ignore (fn ());
      let t1 = Monotonic_clock.now () in
      Int64.to_float (Int64.sub t1 t0))
  | _ -> invalid_arg "Measure.ns_per_run: unexpected test structure"

let seconds ?quota_s ~name fn = ns_per_run ?quota_s ~name fn /. 1e9

let now_s = Obs.now_s

let wall fn =
  let t0 = now_s () in
  let v = fn () in
  (v, now_s () -. t0)

(* Heap high-water sampling: [Gc.quick_stat] is cheap (no heap walk) and
   its [heap_words] — the major heap's total size across all domains —
   only grows between compactions, so sampling it at the points where a
   workload's live set peaks (e.g. each streaming emission) gives a
   faithful high-water mark. The watch compacts at creation so the
   baseline is the program's residual live set, not whatever garbage the
   previous phase left behind. *)
type heap_watch = { baseline : int; mutable peak : int }

let heap_watch () =
  Gc.compact ();
  let w = (Gc.quick_stat ()).Gc.heap_words in
  { baseline = w; peak = w }

let heap_sample hw =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > hw.peak then hw.peak <- w

let heap_peak_words hw =
  heap_sample hw;
  hw.peak

let heap_growth_words hw = heap_peak_words hw - hw.baseline
