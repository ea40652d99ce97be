(* The batch-compilation engine: scratch-arena reuse, pool scheduling, and
   the determinism guarantee — parallel batch output must be byte-identical
   to the sequential pipeline, stats included. *)

open Helpers
module Scratch = Support.Scratch

(* ------------------------------------------------------------------ *)
(* Scratch arenas                                                     *)
(* ------------------------------------------------------------------ *)

let test_scratch_bitset_reuse () =
  let s = Scratch.create () in
  let b1 = Scratch.acquire_bitset s 64 in
  Support.Bitset.add b1 3;
  Support.Bitset.add b1 63;
  Scratch.release_bitset s b1;
  let b2 = Scratch.acquire_bitset s 64 in
  checkb "same buffer returned after release" true (b1 == b2);
  checkb "contents cleared on reacquire" true (Support.Bitset.is_empty b2);
  let b3 = Scratch.acquire_bitset s 64 in
  checkb "second acquire allocates fresh" false (b2 == b3);
  let st = Scratch.stats s in
  checki "one pool hit" 1 st.Scratch.bitset_hits;
  checki "two allocations" 2 st.Scratch.bitset_misses

let test_scratch_capacity_keying () =
  let s = Scratch.create () in
  let b64 = Scratch.acquire_bitset s 64 in
  Scratch.release_bitset s b64;
  let b128 = Scratch.acquire_bitset s 128 in
  checkb "different capacity misses the pool" false (b64 == b128);
  checki "capacity respected" 128 (Support.Bitset.capacity b128)

let test_scratch_int_array_reuse () =
  let s = Scratch.create () in
  let a1 = Scratch.acquire_int_array s 10 (-1) in
  checkb "filled on acquire" true (Array.for_all (fun x -> x = -1) a1);
  a1.(3) <- 7;
  Scratch.release_int_array s a1;
  let a2 = Scratch.acquire_int_array s 10 0 in
  checkb "same array returned after release" true (a1 == a2);
  checkb "refilled on reacquire" true (Array.for_all (fun x -> x = 0) a2);
  let st = Scratch.stats s in
  checki "one array hit" 1 st.Scratch.array_hits

(* Flat int buffers: a buffer is served from the pool when one is long
   enough, the shortest such; growing keeps the prefix; a buffer over the
   pool's cap is not kept, and a full pool keeps its longest buffers. *)
let test_scratch_ints () =
  let s = Scratch.create () in
  let a = Scratch.acquire_ints s 100 and b = Scratch.acquire_ints s 300 in
  checkb "long enough" true (Array.length a >= 100 && Array.length b >= 300);
  Scratch.release_ints s b;
  Scratch.release_ints s a;
  checkb "shortest fit" true (Scratch.acquire_ints s 50 == a);
  checkb "longer need takes the longer buffer" true (Scratch.acquire_ints s 200 == b);
  Array.iteri (fun i _ -> a.(i) <- i) a;
  let g = Scratch.grow_ints s a in
  checkb "grown buffer at least twice as long" true
    (Array.length g >= 2 * Array.length a);
  checkb "grown buffer keeps the prefix" true
    (Array.for_all Fun.id (Array.init (Array.length a) (fun i -> g.(i) = i)));
  checkb "the outgrown buffer is pooled" true (Scratch.acquire_ints s 1 == a);
  let huge = Scratch.acquire_ints s (1 lsl 16) in
  Scratch.release_ints s huge;
  checkb "a buffer over the cap is not kept" false
    (Scratch.acquire_ints s (1 lsl 16) == huge);
  let bufs = List.init 9 (fun i -> Scratch.acquire_ints s (1000 + i)) in
  List.iter (Scratch.release_ints s) bufs;
  checkb "a full pool drops its shortest buffer" false
    (Scratch.acquire_ints s 1000 == List.hd bufs);
  let st = Scratch.stats s in
  checki "pool hits" 4 st.Scratch.array_hits;
  checki "allocations" 14 st.array_misses

(* A full analysis cycle through one arena: the second run of the same
   function must be served from the pool, and must compute the same sets. *)
let test_scratch_analysis_cycle () =
  let f = Ssa.Construct.run_exn (counting_loop ()) in
  let cfg = Ir.Cfg.of_func f in
  let s = Scratch.create () in
  let reference = Analysis.Liveness.compute f cfg in
  let run () =
    let live = Analysis.Liveness.compute_into ~scratch:s f cfg in
    for l = 0 to Ir.num_blocks f - 1 do
      checkb "live_in matches plain compute" true
        (Support.Bitset.equal
           (Analysis.Liveness.live_in live l)
           (Analysis.Liveness.live_in reference l));
      checkb "live_out matches plain compute" true
        (Support.Bitset.equal
           (Analysis.Liveness.live_out live l)
           (Analysis.Liveness.live_out reference l))
    done;
    Analysis.Liveness.release s live
  in
  run ();
  let st1 = Scratch.stats s in
  run ();
  let st2 = Scratch.stats s in
  checki "second run allocates nothing new" st1.Scratch.bitset_misses
    st2.Scratch.bitset_misses;
  checki "second run takes every array from the pool" st1.Scratch.array_misses
    st2.Scratch.array_misses;
  checkb "second run hits the pool" true
    (st2.Scratch.bitset_hits > st1.Scratch.bitset_hits)

(* ------------------------------------------------------------------ *)
(* The domain pool                                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let input = Array.init 100 (fun i -> i) in
      let out = Engine.Pool.map_array pool (fun x -> (x * x) + 1) input in
      checki "all tasks ran" 100 (Array.length out);
      Array.iteri (fun i y -> checki "input-order results" ((i * i) + 1) y) out;
      (* A pool must survive multiple batches. *)
      let out2 = Engine.Pool.map_array pool string_of_int input in
      check Alcotest.(list string) "second batch"
        [ "0"; "1"; "2" ]
        (Array.to_list (Array.sub out2 0 3)))

let test_pool_exception () =
  let exception Boom of int in
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      match
        Engine.Pool.map_array pool
          (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
          (Array.init 10 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Boom i -> checki "lowest failing index wins" 1 i);
  (* The pool above still shut down cleanly despite the failure. *)
  checkb "with_pool unwound" true true

let test_pool_jobs_one_inline () =
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      checki "no worker domains for jobs=1" 1 (Engine.Pool.jobs pool);
      let seen = ref [] in
      Engine.Pool.run pool ~total:4 (fun i -> seen := i :: !seen);
      check
        Alcotest.(list int)
        "sequential order when inline" [ 0; 1; 2; 3 ] (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* The streaming core                                                 *)
(* ------------------------------------------------------------------ *)

let counting_producer n =
  let next = ref 0 in
  fun () ->
    if !next >= n then None
    else (
      let i = !next in
      incr next;
      Some i)

let test_stream_in_order () =
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          let seen = ref [] in
          Engine.Stream.run pool ~window:8
            ~producer:(counting_producer 200)
            ~consumer:(fun seq v -> seen := (seq, v) :: !seen)
            (fun i -> i * i);
          let seen = List.rev !seen in
          checki "every item emitted" 200 (List.length seen);
          List.iteri
            (fun i (seq, v) ->
              checki "emission order is input order" i seq;
              checki "value paired with its own index" (i * i) v)
            seen))
    [ 1; 4 ]

let test_stream_exception () =
  let exception Boom of int in
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          match
            Engine.Stream.run pool ~window:4
              ~producer:(counting_producer 100)
              ~consumer:(fun _ _ -> ())
              (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
          with
          | () -> Alcotest.fail "expected the stream to raise"
          | exception Boom i -> checki "lowest failing index wins" 3 i))
    [ 1; 4 ]

(* A producer that raises (a corpus reader on a malformed line) must end
   the stream with its exception after every item read before it was
   emitted, on every job count, and must not leave a domain waiting on the
   queue. An item that fails earlier than the producer still wins. *)
let test_stream_producer_exception () =
  let exception Bad_input of int in
  let exception Boom of int in
  let producer fail_at =
    let next = counting_producer 100 in
    fun () ->
      match next () with
      | Some i when i = fail_at -> raise (Bad_input i)
      | r -> r
  in
  List.iter
    (fun jobs ->
      Engine.Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun window ->
              let seen = ref [] in
              (match
                 Engine.Stream.run pool ~window ~producer:(producer 37)
                   ~consumer:(fun seq _ -> seen := seq :: !seen)
                   (fun i -> i)
               with
              | () -> Alcotest.fail "expected the producer's exception"
              | exception Bad_input i ->
                checki "producer exception re-raised" 37 i);
              check
                Alcotest.(list int)
                "items before the failure emitted in order"
                (List.init 37 Fun.id) (List.rev !seen);
              match
                Engine.Stream.run pool ~window ~producer:(producer 37)
                  ~consumer:(fun _ _ -> ())
                  (fun i -> if i = 20 then raise (Boom i) else i)
              with
              | () -> Alcotest.fail "expected the stream to raise"
              | exception Boom i -> checki "earlier item failure wins" 20 i)
            [ 1; 4; 64 ];
          (* The pool is still usable afterwards. *)
          let n = ref 0 in
          Engine.Stream.run pool ~producer:(counting_producer 10)
            ~consumer:(fun _ _ -> incr n)
            (fun i -> i);
          checki "pool reusable after a producer failure" 10 !n))
    [ 1; 2; 3 ]

(* The admission gate: with window [w], the producer may run at most [w]
   items ahead of the emission frontier. The consumer runs under the
   stream's lock, so the produced count it reads is exact. Every tenth
   item takes real time: a domain takes an item only when it is free to
   compute it, so with instant items nothing would run ahead. *)
let test_stream_window_bound () =
  let window = 4 in
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let produced = ref 0 in
      let max_ahead = ref 0 in
      let producer =
        let next = counting_producer 300 in
        fun () ->
          match next () with
          | None -> None
          | some ->
            incr produced;
            some
      in
      Engine.Stream.run pool ~window ~producer
        ~consumer:(fun seq _ ->
          let ahead = !produced - seq in
          if ahead > !max_ahead then max_ahead := ahead)
        (fun i ->
          if i mod 10 = 0 then Unix.sleepf 0.0005;
          i);
      checkb
        (Printf.sprintf "in-flight items bounded by the window (saw %d)"
           !max_ahead)
        true
        (!max_ahead <= window);
      (* The bound is also tight: a 4-domain pool should actually run
         ahead of the frontier, not degenerate to lock-step. *)
      checkb "pipeline actually overlaps" true (!max_ahead >= 2))

(* No domain is a dedicated reader: on a 2-domain pool, items 0 and 1
   run at the same time while the producer still has input. Each waits
   until both have started; a stream whose producer domain computes only
   after the input ends runs item 1 only after item 0 has timed out. *)
let test_stream_producer_domain_computes () =
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      let started = Atomic.make 0 in
      let met = Array.make 2 false in
      Engine.Stream.run pool ~producer:(counting_producer 1000)
        ~consumer:(fun _ _ -> ())
        (fun i ->
          if i < 2 then begin
            Atomic.incr started;
            let deadline = Unix.gettimeofday () +. 5. in
            while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
              Unix.sleepf 0.0002
            done;
            met.(i) <- Atomic.get started >= 2
          end;
          i);
      checkb "item 0 saw item 1 start" true met.(0);
      checkb "item 1 saw item 0 start" true met.(1))

let test_stream_empty_and_bad_window () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let emitted = ref 0 in
      Engine.Stream.run pool
        ~producer:(fun () -> None)
        ~consumer:(fun _ _ -> incr emitted)
        (fun (i : int) -> i);
      checki "empty producer emits nothing" 0 !emitted;
      match
        Engine.Stream.run pool ~window:0 ~producer:(counting_producer 1)
          ~consumer:(fun _ _ -> ())
          (fun i -> i)
      with
      | () -> Alcotest.fail "window 0 must be rejected"
      | exception Invalid_argument _ -> checkb "window 0 rejected" true true)

(* The differential that pins the refactor down: the streaming core must
   produce exactly what the materialized batch API produces — same
   reports, same order, same merged Obs counters — for any corpus, any
   job count, any window. *)
let prop_stream_equals_batch =
  QCheck.Test.make ~count:10 ~name:"stream = compile_batch_passes"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 8) (int_bound 10_000))
        (QCheck.oneofl [ 1; 4 ])
        (QCheck.oneofl [ 1; 2; 64 ]))
    (fun (seeds, jobs, window) ->
      let funcs =
        List.mapi (fun i seed -> random_program (seed + i) (8 + (seed mod 12))) seeds
      in
      let passes = new_pipeline in
      let obs_ref = Obs.create () in
      let expected =
        Driver.Pipeline.compile_batch_passes ~jobs:1 ~obs:obs_ref passes funcs
      in
      let obs_stream = Obs.create () in
      let got = ref [] in
      Engine.Pool.with_pool ~jobs (fun pool ->
          Driver.Pipeline.stream_passes_in pool ~window ~obs:obs_stream
            ~producer:(Engine.Stream.of_list funcs)
            ~consumer:(fun _ r -> got := r :: !got)
            passes);
      let got = List.rev !got in
      List.length expected = List.length got
      && List.for_all2
           (fun (a : Driver.Pipeline.report) (b : Driver.Pipeline.report) ->
             Ir.Printer.func_to_string a.output
             = Ir.Printer.func_to_string b.output)
           expected got
      && Obs.counters obs_ref = Obs.counters obs_stream)

(* Bounded memory: stream a corpus 10× larger and the heap high-water must
   stay within a small constant factor, while materializing the same
   corpus (inputs and reports all live at once) must cost strictly more
   than streaming it. Factors are deliberately loose — heap_words moves
   in GC-sized steps — but a reorder-window leak (O(n) retained reports)
   overshoots 4× by an order of magnitude. *)
let test_stream_bounded_memory () =
  let spec total =
    { Workloads.Corpus.seed = 11; total; mix = Workloads.Corpus.default_mix }
  in
  let streaming total =
    let watch = Harness.Measure.heap_watch () in
    Engine.Pool.with_pool ~jobs:4 (fun pool ->
        Driver.Pipeline.stream_passes_in pool
          ~producer:(Workloads.Corpus.producer (spec total))
          ~consumer:(fun _ _ -> Harness.Measure.heap_sample watch)
          new_pipeline);
    Harness.Measure.heap_growth_words watch
  in
  let materialized total =
    let watch = Harness.Measure.heap_watch () in
    Engine.Pool.with_pool ~jobs:4 (fun pool ->
        let next = Workloads.Corpus.producer (spec total) in
        let rec all acc =
          match next () with Some f -> all (f :: acc) | None -> List.rev acc
        in
        let reports =
          Driver.Pipeline.compile_batch_passes_in pool
            new_pipeline
            (all [])
        in
        ignore (Sys.opaque_identity reports);
        Harness.Measure.heap_sample watch);
    Harness.Measure.heap_growth_words watch
  in
  let small = streaming 100 in
  let large = streaming 1000 in
  let mat = materialized 1000 in
  (* Factor 6, not a tight bound: major-GC pacing admits garbage in
     proportion to the whole process's live set, so the measured
     high-water drifts with whatever earlier tests left memoized (e.g.
     the suite's large numeric routines) even though the streaming
     window itself is fixed. Linear growth would be ~10x. *)
  checkb
    (Printf.sprintf "streaming peak flat across 10x corpus (%d -> %d words)"
       small large)
    true
    (large <= 6 * small);
  checkb
    (Printf.sprintf "streaming beats materialized at 1000 funcs (%d < %d)"
       large mat)
    true (large < mat)

(* ------------------------------------------------------------------ *)
(* Batch compilation determinism                                      *)
(* ------------------------------------------------------------------ *)

let batch_entries () =
  Workloads.Suite.kernels () @ Workloads.Suite.large ()

(* The sequential reference: the same pipeline, one function at a time, no
   shared arenas or pools involved. *)
let sequential_reference funcs =
  List.map
    (fun f ->
      let ssa = Ssa.Construct.run_exn f in
      let func, stats = Core.Coalesce.run ssa in
      (Ir.Printer.func_to_string func, stats))
    funcs

(* The same passes under the pool, each function drawing its buffers from
   its domain's scratch arena: the whole stats record must match the fresh
   sequential one, fields no printed note shows included. *)
let batch_stats funcs =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      Engine.Pool.map_array pool
        (fun f ->
          snd
            (Core.Coalesce.run ~scratch:(Scratch.domain ())
               (Ssa.Construct.run_exn f)))
        (Array.of_list funcs))
  |> Array.to_list

let test_batch_matches_sequential () =
  let entries = batch_entries () in
  let funcs = List.map (fun (e : Workloads.Suite.entry) -> e.func) entries in
  let expected = sequential_reference funcs in
  let got = Driver.Pipeline.compile_batch_passes ~jobs:4 new_pipeline funcs in
  List.iter2
    (fun (e : Workloads.Suite.entry) ((printed, _), (r : Driver.Pipeline.report)) ->
      check Alcotest.string
        (e.name ^ ": byte-identical printer output")
        printed
        (Ir.Printer.func_to_string r.output))
    entries
    (List.combine expected got);
  List.iter2
    (fun (e : Workloads.Suite.entry) ((_, stats), got_stats) ->
      checkb (e.name ^ ": identical Coalesce.stats") true (stats = got_stats))
    entries
    (List.combine expected (batch_stats funcs))

let test_batch_deterministic_across_runs () =
  let funcs =
    List.map (fun (e : Workloads.Suite.entry) -> e.func) (batch_entries ())
  in
  let print l =
    List.map
      (fun (r : Driver.Pipeline.report) -> Ir.Printer.func_to_string r.output)
      l
  in
  let r1 = Driver.Pipeline.compile_batch_passes ~jobs:4 new_pipeline funcs in
  let r2 = Driver.Pipeline.compile_batch_passes ~jobs:2 new_pipeline funcs in
  check
    Alcotest.(list string)
    "jobs=4 and jobs=2 agree" (print r1) (print r2)

let test_driver_batch_matches_compile () =
  let funcs =
    List.map
      (fun (e : Workloads.Suite.entry) -> e.func)
      (Workloads.Suite.kernels ())
  in
  let expected =
    List.map
      (fun f -> (Driver.Pipeline.compile_passes new_pipeline f).output)
      funcs
  in
  let got = Driver.Pipeline.compile_batch_passes ~jobs:4 new_pipeline funcs in
  List.iter2
    (fun e (r : Driver.Pipeline.report) ->
      check Alcotest.string "driver batch output matches compile"
        (Ir.Printer.func_to_string e)
        (Ir.Printer.func_to_string r.output))
    expected got

let suite =
  [
    Alcotest.test_case "scratch: bitset reuse + clearing" `Quick
      test_scratch_bitset_reuse;
    Alcotest.test_case "scratch: capacity keying" `Quick
      test_scratch_capacity_keying;
    Alcotest.test_case "scratch: int array reuse" `Quick
      test_scratch_int_array_reuse;
    Alcotest.test_case "scratch: flat int buffers" `Quick test_scratch_ints;
    Alcotest.test_case "scratch: liveness cycle reuses buffers" `Quick
      test_scratch_analysis_cycle;
    Alcotest.test_case "pool: parallel map, input order" `Quick test_pool_map;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: jobs=1 runs inline" `Quick
      test_pool_jobs_one_inline;
    Alcotest.test_case "stream: in-order completeness" `Quick
      test_stream_in_order;
    Alcotest.test_case "stream: exception propagation" `Quick
      test_stream_exception;
    Alcotest.test_case "stream: producer exception propagation" `Quick
      test_stream_producer_exception;
    Alcotest.test_case "stream: window bounds in-flight items" `Quick
      test_stream_window_bound;
    Alcotest.test_case "stream: the producer's domain computes before the input ends"
      `Quick test_stream_producer_domain_computes;
    Alcotest.test_case "stream: empty producer + window validation" `Quick
      test_stream_empty_and_bad_window;
    QCheck_alcotest.to_alcotest prop_stream_equals_batch;
    Alcotest.test_case "stream: bounded memory vs materialized" `Slow
      test_stream_bounded_memory;
    Alcotest.test_case "batch = sequential (kernels + large)" `Slow
      test_batch_matches_sequential;
    Alcotest.test_case "batch deterministic across job counts" `Slow
      test_batch_deterministic_across_runs;
    Alcotest.test_case "driver compile_batch = compile" `Slow
      test_driver_batch_matches_compile;
  ]
