(* corpus-stream: batch traffic. Set-up writes a seeded corpus in the
   Workloads.Corpus default mix and line format to a file; the timed part
   reads it back a line at a time (Corpus.decode_line, then Ir.Parse, as
   Corpus.read_funcs does) into Driver.Pipeline.stream_passes_in on a
   2-domain pool with a memory cache and the default pipeline, re-reading
   the file from the top whenever it runs out.

   The cache holds fewer entries than the corpus has distinct functions,
   so on every pass the repeated kernels and adversarial shapes hit (a
   quarter to a third of items) while the all-distinct generated
   functions and near-duplicates miss: cache reads and writes both show,
   and the hit share is the same on the first pass and the tenth. *)

let jobs = 2
let corpus_size = 4000
let cache_capacity = 1024
let check_every = 97
let layer_sample = 300
let dir = ".e2e-tmp"

let front line = Ir.Parse.func_of_string (Workloads.Corpus.decode_line line)

type setup = { path : string; pool : Engine.Pool.t }

(* Items interleaved from [parts] corpora seeded from the run's seed. One
   Workloads.Corpus draws its near-duplicates from 8 base functions
   seeded by consecutive integers, so a single corpus's cost swings with
   its seed; eight corpora with seeds far apart draw from 64 bases and
   average that out. *)
let parts = 8

let producer ~seed =
  let next =
    Array.init parts (fun k ->
        Workloads.Corpus.producer
          {
            Workloads.Corpus.seed = (seed * 1000) + (k * 100);
            total = corpus_size / parts;
            mix = Workloads.Corpus.default_mix;
          })
  in
  let i = ref 0 in
  fun () ->
    let f = next.(!i mod parts) () in
    incr i;
    f

let setup ~seed () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "corpus-%d.txt" (Unix.getpid ())) in
  ignore (Workloads.Corpus.write_funcs path (producer ~seed));
  let pool = Engine.Pool.create ~jobs () in
  (* An untimed warm-up over the head of the corpus, so both domains'
     scratch arenas are in use before timing starts. *)
  let next = Workloads.Corpus.read_funcs path in
  let head = ref 200 in
  Driver.Pipeline.stream_passes_in pool
    ~cache:(Cache.create ~capacity:cache_capacity ())
    ~producer:(fun () -> if !head = 0 then None else (decr head; next ()))
    ~consumer:(fun _ _ -> ())
    Report.default_pipeline;
  { path; pool }

let release s =
  Engine.Pool.shutdown s.pool;
  if Sys.file_exists s.path then Sys.remove s.path

(* The corpus file as an endless producer of lines, restarting at the
   top on end of file. *)
let line_reader path =
  let ic = ref (open_in_bin path) in
  let rec next () =
    match In_channel.input_line !ic with
    | Some l -> l
    | None ->
      close_in !ic;
      ic := open_in_bin path;
      next ()
  in
  (next, fun () -> close_in_noerr !ic)

(* The machine's speed on every domain of the pool at once: the stream
   runs on all of them. *)
let sample_pool pool =
  let out = Array.make (Engine.Pool.jobs pool) 0. in
  Engine.Pool.run_workers pool (fun i -> out.(i) <- Speed.sample ());
  Array.to_list out

let run ~seed ~seconds ~trace ~setups ~spans =
  let s, setup, wall_setup = Report.repeat_setup ~times:setups ~release (setup ~seed) in
  Fun.protect ~finally:(fun () -> release s) @@ fun () ->
  let measured = if trace then seconds /. 2. else seconds in
  let cache = Cache.create ~capacity:cache_capacity () in
  let next_line, close = line_reader s.path in
  let lock = Mutex.create () in
  let admitted = Stats.Buf.create () in
  let parse_s = ref 0. in
  let emitted_at = Stats.Buf.create () in
  let kept = ref [] and in_order = ref true and emitted = ref 0 in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Report.now () in
  (* The window runs as [Report.blocks] streams one after another, each
     a block, with the machine's speed sampled between them. A block's
     time runs from its first admission to its last emission, so it
     includes filling and draining the stream's window. *)
  let before = ref (sample_pool s.pool) in
  let stream () =
    let start = Report.now () in
    let deadline = start +. (measured /. float Report.blocks) in
    let base = !emitted and lat = ref [] in
    let producer () =
      if Report.now () >= deadline then None
      else begin
        let p0 = Report.now () in
        let f = front (next_line ()) in
        let p1 = Report.now () in
        parse_s := !parse_s +. (p1 -. p0);
        Mutex.lock lock;
        Stats.Buf.add admitted p1;
        Mutex.unlock lock;
        Some f
      end
    in
    let consumer seq (r : Driver.Pipeline.report) =
      let t = Report.now () in
      let k = base + seq in
      Mutex.lock lock;
      let a = Stats.Buf.get admitted k in
      Mutex.unlock lock;
      lat := (t -. a) :: !lat;
      Stats.Buf.add emitted_at t;
      if k <> !emitted then in_order := false;
      incr emitted;
      if k mod check_every = 0 then kept := r :: !kept
    in
    Driver.Pipeline.stream_passes_in s.pool ~cache ~producer ~consumer Report.default_pipeline;
    let stop = Report.now () in
    let after = sample_pool s.pool in
    let b = Report.block_of ~speed:(Speed.factor (!before @ after)) (stop -. start) !lat in
    before := after;
    b
  in
  let blocks = List.init Report.blocks (fun _ -> stream ()) in
  let elapsed = Report.now () -. t0 in
  close ();
  let words = ((Gc.quick_stat ()).Gc.minor_words -. w0) /. float !emitted in
  let peak = Report.peak_heap_mb () in
  let c = Report.checks () in
  Report.check c "emission in input order" !in_order;
  List.iter
    (fun (r : Driver.Pipeline.report) ->
      Report.check_run c ("corpus item " ^ r.input.Ir.name) (fun () ->
          Check.equiv ~reference:r.input r.output = Ok ()))
    !kept;
  let scratch = Support.Scratch.domain () in
  let paper =
    List.filter (fun (it : Inputs.item) -> it.paper) (Array.to_list (Inputs.suite ~seed))
  in
  let static, dynamic, spills, _ = Report.quality c ~scratch [ Report.default_pipeline ] paper in
  let n = !emitted in
  let timing, wall_timing = Report.scaled_timing_metrics ~n blocks in
  let e2e =
    (setup :: timing)
    @ [
        Report.metric ~n "alloc_words_per_item" words "words";
        Report.metric "peak_heap_mb" peak "MB";
        Report.metric "static_copies" static "count";
        Report.metric "dynamic_copies" dynamic "count";
        Report.metric "spill_ops" spills "count";
      ]
  in
  let stats = Cache.stats cache in
  let emits = Array.of_list (Stats.Buf.to_list emitted_at) in
  let gap_sorted =
    Stats.sorted_of_list (List.init (max 0 (n - 1)) (fun i -> emits.(i + 1) -. emits.(i)))
  in
  let extras =
    [
      Report.metric ~n "ir.parse_us" (!parse_s /. float n *. 1e6) "us";
      Report.metric ~n:(Array.length gap_sorted) "engine.emit_gap_ms_p99"
        (Stats.percentile gap_sorted 99. *. 1e3)
        "ms";
      Report.metric "cache.collapsed" (float stats.dedup_collapsed) "count";
    ]
  in
  let layers =
    if not trace then []
    else begin
      (* The layer profile of the corpus's own mix: its first lines,
         replayed layer by layer until the traced half is over. *)
      let next_line, close = line_reader s.path in
      let sample =
        Array.init layer_sample (fun i ->
            let wire = next_line () in
            { Inputs.name = Printf.sprintf "line%d" i; func = front wire; wire; args = None; paper = false })
      in
      close ();
      let acc = Layers.create spans in
      let order = Array.init layer_sample Fun.id in
      ignore
        (Report.cycles ~seconds:measured ~order (fun i ->
             fst
               (Layers.replay acc ~scratch ~front ~route:[ Harness.Pipelines.New ] ~req:i
                  sample.(i))));
      Layers.metrics acc @ Report.cache_metrics stats
    end
  in
  {
    Report.workload = "corpus-stream";
    attempted = n + c.attempted;
    failed = c.failed;
    invalid = None;
    seconds = elapsed;
    e2e;
    layers;
    extras = (wall_setup :: wall_timing) @ extras @ if trace then [] else Report.cache_metrics stats;
    notes =
      Report.block_note "stream" blocks
      :: Option.to_list (Option.map (( ^ ) "first failure: ") c.first_failure);
  }
