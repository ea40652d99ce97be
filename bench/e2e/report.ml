(* What one workload run produces, and the pieces every workload shares:
   repeated set-up, the reference-suite quality counts, peak heap. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int;  (* samples behind the value *)
}

let metric ?(n = 1) name value unit = { name; value; unit; n }

type result = {
  workload : string;
  attempted : int;
  failed : int;
  invalid : string option;  (* why the timings are not to be compared *)
  seconds : float;  (* wall time the measured phase actually ran *)
  e2e : metric list;  (* untraced: the end-to-end metrics *)
  layers : metric list;  (* traced runs: the per-layer metrics *)
  extras : metric list;  (* printed and recorded, but not gated *)
  notes : string list;
}

let now = Harness.Measure.now_s

(* Set up [times] times, keeping the last result and releasing the
   others. Repeating it makes [setup_s] a median rather than one sample.
   Each set-up is timed between samples of the machine's speed, and
   [setup_s] is the median at nominal speed (see Speed); returns the
   result, [setup_s] and, for the extras, [wall.setup_s], the median of
   the wall times. *)
let repeat_setup ~times ~release setup =
  let speed () = [ Speed.sample () ] in
  let rec go k before scaled wall =
    let t0 = now () in
    let r = setup () in
    let dt = now () -. t0 in
    let after = speed () in
    let scaled = (dt *. Speed.factor (before @ after)) :: scaled and wall = dt :: wall in
    if k = 1 then
      ( r,
        metric ~n:times "setup_s" (Stats.median scaled) "s",
        metric ~n:times "wall.setup_s" (Stats.median wall) "s" )
    else begin
      release r;
      go (k - 1) after scaled wall
    end
  in
  go times (speed ()) [] []

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* One complete visit of every item: when it ran, each item's sample,
   indexed like the items, and the machine's speed sampled right before
   and right after it. *)
type cycle = { start : float; stop : float; samples : float array; speed : float list }

(* Visit the items in [order], cycle after cycle, until [seconds] have
   passed; the first cycle always completes. [f i] handles item [i] and
   returns its sample. Only complete cycles are returned, so every item
   weighs the same in the percentiles. Returns the items handled, the
   elapsed time and the complete cycles in order. *)
let cycles ~seconds ~order f =
  let n = Array.length order in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let count = ref 0 in
  let before = ref (Speed.sample ()) in
  let rec cycle first acc =
    let start = now () in
    let samples = Array.make n 0. in
    let rec go k =
      if k = n then true
      else if (not first) && now () >= deadline then false
      else begin
        let i = order.(k) in
        samples.(i) <- f i;
        incr count;
        go (k + 1)
      end
    in
    if go 0 then begin
      let stop = now () in
      let after = Speed.sample () in
      let acc = { start; stop; samples; speed = [ !before; after ] } :: acc in
      before := after;
      if now () < deadline then cycle false acc else acc
    end
    else acc
  in
  let cs = List.rev (cycle true []) in
  (!count, now () -. t0, cs)

(* On a shared virtual machine a core's speed drifts within a run: on
   the 2-vCPU KVM guest (Xeon, 2.1 GHz) the bounds were set on, a fixed
   compile loop took from 0.8 s to 1.5 s per round, changing every few
   seconds. A run is therefore cut into blocks, each block's throughput
   and latency percentiles are computed on their own, at the speed
   sampled in that block, and a run reports the median over its blocks: a
   slow or stalled stretch moves it once it covers half the run, not when
   it covers one block. *)
let blocks = 10

type block = {
  dur : float;
  items : int;
  lat : float array;  (* sorted, seconds *)
  speed : float;  (* Speed.factor over the block; 1 where not sampled *)
}

let block_of ?(speed = 1.) dur xs =
  let lat = Array.of_list xs in
  Array.sort Float.compare lat;
  { dur; items = Array.length lat; lat; speed }

(* The block as it would have run at nominal speed. *)
let at_nominal b =
  { b with dur = b.dur *. b.speed; lat = Array.map (fun x -> x *. b.speed) b.lat; speed = 1. }

(* Consecutive complete cycles grouped into at most [blocks] blocks of at
   least two cycles each: with one cycle a block would hold less than one
   sample beyond its 99th percentile, and that percentile would land on
   the second-largest function instead of the largest. *)
let cycle_blocks cycles =
  let cs = Array.of_list cycles in
  let nc = Array.length cs in
  let per = max 2 (nc / blocks) in
  let rec go i acc =
    if i >= nc then List.rev acc
    else
      let j = if nc - i < 2 * per then nc else i + per in
      let group = Array.to_list (Array.sub cs i (j - i)) in
      let dur = List.fold_left (fun a (c : cycle) -> a +. (c.stop -. c.start)) 0. group in
      let speed = Speed.factor (List.concat_map (fun (c : cycle) -> c.speed) group) in
      go j
        (block_of ~speed dur (List.concat_map (fun c -> Array.to_list c.samples) group) :: acc)
  in
  go 0 []

(* Events [(t, x)] cut into [count] equal time blocks over [t0, t1). *)
let time_blocks ?(count = blocks) ~t0 ~t1 events =
  let dur = (t1 -. t0) /. float count in
  let bins = Array.make count [] in
  List.iter
    (fun (t, x) ->
      let k = int_of_float ((t -. t0) /. dur) in
      if k >= 0 && k < count then bins.(k) <- x :: bins.(k))
    events;
  Array.to_list (Array.map (block_of dur) bins)

let median_throughput blocks =
  Stats.median (List.map (fun b -> float b.items /. b.dur) blocks)

let median_percentile blocks p =
  Stats.median
    (List.filter_map
       (fun b -> if b.items = 0 then None else Some (Stats.percentile b.lat p))
       blocks)

(* One line showing every block by the wall clock, with the machine's
   speed in it, so a reader can see how far the median is from the
   rest. *)
let block_note name blocks =
  Printf.sprintf "%s blocks (items/s, p50 ms, p99 ms @ speed): %s" name
    (String.concat " "
       (List.map
          (fun b ->
            if b.items = 0 then "-"
            else
              Printf.sprintf "%.0f/%.3g/%.3g@%.2f"
                (float b.items /. b.dur)
                (Stats.percentile b.lat 50. *. 1e3)
                (Stats.percentile b.lat 99. *. 1e3)
                b.speed)
          blocks))

(* The three timing metrics; [n] is the samples behind them. *)
let timing_metrics ~n ~items_per_s blocks =
  [
    metric ~n "items_per_s" items_per_s "1/s";
    metric ~n "latency_ms_p50" (median_percentile blocks 50. *. 1e3) "ms";
    metric ~n "latency_ms_p99" (median_percentile blocks 99. *. 1e3) "ms";
  ]

(* The timing metrics of compute-bound blocks: at nominal speed for the
   gated metrics, and for the extras the same by the wall clock
   ([wall.*]) with the machine's median speed over the blocks. *)
let scaled_timing_metrics ~n blocks =
  let scaled = List.map at_nominal blocks in
  ( timing_metrics ~n ~items_per_s:(median_throughput scaled) scaled,
    List.map
      (fun m -> { m with name = "wall." ^ m.name })
      (timing_metrics ~n ~items_per_s:(median_throughput blocks) blocks)
    @ [ metric "machine.speed" (Stats.median (List.map (fun b -> b.speed) blocks)) "ratio" ] )

(* Tally of checks made outside the timed window. *)
type checks = { mutable attempted : int; mutable failed : int; mutable first_failure : string option }

let checks () = { attempted = 0; failed = 0; first_failure = None }

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.first_failure = None then c.first_failure <- Some what
  end

(* [check] over a thunk that may raise: an exception is a failure. *)
let check_run c what f =
  match f () with
  | ok -> check c what ok
  | exception e -> check c (what ^ ": " ^ Printexc.to_string e) false

let regalloc_registers = 8

(* The output-quality counts of a set of pipelines on the fixed paper
   suite (43 kernels + 5 large routines), made outside the timed window:
   static copies (kernels + large), dynamic copies executed and k=8 spill
   loads + stores (kernels), and minor-heap words allocated per function
   compiled through all of [pipelines]. None of them depends on the seed,
   so each repeats exactly. Every allocated output is checked against its
   input. *)
let quality c ~scratch pipelines (paper : Inputs.item list) =
  let static = ref 0 and dynamic = ref 0 and spills = ref 0 in
  let compile (it : Inputs.item) p =
    (Driver.Pipeline.compile_passes ~scratch p it.func).output
  in
  List.iter
    (fun (it : Inputs.item) ->
      List.iter
        (fun p ->
          let out = compile it p in
          static := !static + Ir.count_copies out;
          match it.args with
          | None -> ()
          | Some args ->
            dynamic := !dynamic + (Interp.run ~args out).stats.copies_executed;
            let a =
              Regalloc.run
                ~options:{ Regalloc.default_options with registers = regalloc_registers }
                out
            in
            spills := !spills + a.stats.spill_loads + a.stats.spill_stores;
            check c ("regalloc " ^ it.name)
              (Check.equiv ~ignore_arrays:[ a.spill_array ] ~reference:it.func a.func
              = Ok ()))
        pipelines)
    paper;
  let w0 = Gc.minor_words () in
  List.iter (fun it -> List.iter (fun p -> ignore (compile it p)) pipelines) paper;
  let words = (Gc.minor_words () -. w0) /. float (List.length paper) in
  (float !static, float !dynamic, float !spills, words)

let default_pipeline = Driver.Pipeline.passes_of_config Driver.Pipeline.default

(* The compile cache's counters; zero on the workloads that run without
   one. *)
let cache_metrics (s : Cache.stats) =
  let lookups = s.hits + s.misses in
  [
    metric "cache.hits" (float s.hits) "count";
    metric "cache.misses" (float s.misses) "count";
    metric "cache.evictions" (float s.evictions) "count";
    metric "cache.hit_frac"
      (if lookups = 0 then 0. else float s.hits /. float lookups)
      "frac";
  ]

(* Percentiles in milliseconds of samples in seconds, for the printed
   extras. *)
let percentile_metrics prefix xs =
  let s = Stats.sorted_of_list xs in
  let n = Array.length s in
  [
    metric ~n (prefix ^ "_p50") (Stats.percentile s 50. *. 1e3) "ms";
    metric ~n (prefix ^ "_p99") (Stats.percentile s 99. *. 1e3) "ms";
  ]
