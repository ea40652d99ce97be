(* Tests for the lib/obs observability layer: recorder arithmetic, merge
   semantics, JSON round-tripping, golden comparison, and the pipeline /
   engine integration (recorders must never change compilation results, and
   batch aggregation must be deterministic). *)

open Helpers

let test_counter_names_unique () =
  let names = List.map Obs.counter_name Obs.all_counters in
  checki "every counter has a distinct name"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_incr_add_get () =
  let o = Obs.create () in
  checki "fresh counter is zero" 0 (Obs.get o Obs.Phis_inserted);
  Obs.incr o Obs.Phis_inserted;
  Obs.add o Obs.Phis_inserted 4;
  checki "incr + add accumulate" 5 (Obs.get o Obs.Phis_inserted);
  checki "other counters untouched" 0 (Obs.get o Obs.Copies_inserted);
  Obs.reset o;
  checki "reset zeroes" 0 (Obs.get o Obs.Phis_inserted)

let test_counters_vector_is_full () =
  let o = Obs.create () in
  Obs.add o Obs.Copies_eliminated 3;
  let v = Obs.counters o in
  checki "full canonical vector" (List.length Obs.all_counters)
    (List.length v);
  check (Alcotest.list Alcotest.string) "canonical order"
    (List.map Obs.counter_name Obs.all_counters)
    (List.map fst v);
  checki "set value present" 3 (List.assoc "copies_eliminated" v)

let test_spans_accumulate () =
  let o = Obs.create () in
  let r = Obs.span o "phase" (fun () -> 42) in
  checki "span returns the thunk's value" 42 r;
  Obs.add_span o "phase" 1.5;
  Obs.add_span o "other" 0.25;
  (match Obs.spans o with
  | [ ("phase", t); ("other", t') ] ->
    checkb "span time accumulated" true (t >= 1.5);
    checkb "second span" true (t' = 0.25)
  | _ -> Alcotest.fail "expected two spans in first-recorded order");
  (* Exceptions propagate but the time is still charged. *)
  (try Obs.span o "failing" (fun () -> failwith "boom") with Failure _ -> ());
  checkb "span recorded despite exception" true
    (List.mem_assoc "failing" (Obs.spans o))

let test_merge () =
  let a = Obs.create () and b = Obs.create () in
  Obs.add a Obs.Copies_inserted 2;
  Obs.add b Obs.Copies_inserted 3;
  Obs.add b Obs.Forest_detaches 1;
  Obs.add_span a "t" 1.0;
  Obs.add_span b "t" 2.0;
  Obs.add_span b "u" 4.0;
  Obs.merge ~into:a b;
  checki "counters add" 5 (Obs.get a Obs.Copies_inserted);
  checki "missing-on-left counters copied" 1 (Obs.get a Obs.Forest_detaches);
  checkb "spans add" true (List.assoc "t" (Obs.spans a) = 3.0);
  checkb "new spans appear" true (List.assoc "u" (Obs.spans a) = 4.0);
  (* The source is untouched. *)
  checki "source unchanged" 3 (Obs.get b Obs.Copies_inserted)

let test_json_round_trip () =
  let o = Obs.create () in
  Obs.add o Obs.Phi_args_unioned 7;
  Obs.add o Obs.Copies_inserted 11;
  Obs.add_span o "convert" 0.125;
  let report = [ ("new", Obs.snapshot o); ("standard", Obs.snapshot o) ] in
  let counters_only =
    List.map
      (fun (r, (s : Obs.Snapshot.t)) -> (r, { s with Obs.Snapshot.spans = [] }))
      report
  in
  (* Default emission drops spans (golden files), ~spans:true keeps them. *)
  checkb "counters round-trip" true
    (Obs.report_of_json (Obs.report_to_json report) = counters_only);
  checkb "spans round-trip" true
    (Obs.report_of_json (Obs.report_to_json ~spans:true report) = report);
  (* Malformed inputs raise Failure, not a crash. *)
  List.iter
    (fun bad ->
      match Obs.report_of_json bad with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ())
    [ ""; "{"; "{}"; "{\"schema\": \"other/1\", \"routes\": {}}"; "[1,2" ]

let test_compare_reports () =
  let snap counters = { Obs.Snapshot.counters; spans = [] } in
  let expected = [ ("new", snap [ ("copies_inserted", 100); ("classes", 5) ]) ] in
  checkb "equal reports: no drift" true
    (Obs.compare_reports ~expected expected = []);
  (* A drifted counter is reported with both values. *)
  let actual = [ ("new", snap [ ("copies_inserted", 110); ("classes", 5) ]) ] in
  (match Obs.compare_reports ~expected actual with
  | [ d ] ->
    check Alcotest.string "route" "new" d.Obs.route;
    check Alcotest.string "counter" "copies_inserted" d.Obs.counter;
    checki "expected" 100 d.Obs.expected;
    checki "actual" 110 d.Obs.actual
  | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds));
  (* Tolerances are relative: 10% absorbs the +10, 5% does not. *)
  checkb "within tolerance" true
    (Obs.compare_reports ~tolerances:[ ("copies_inserted", 0.10) ] ~expected
       actual
    = []);
  checkb "outside tolerance" true
    (Obs.compare_reports ~tolerances:[ ("copies_inserted", 0.05) ] ~expected
       actual
    <> []);
  (* Missing routes/counters on either side read as zero. *)
  checkb "missing route drifts" true
    (Obs.compare_reports ~expected [] <> []);
  let extra = ("standard", snap [ ("copies_inserted", 1) ]) in
  checkb "extra route drifts" true
    (Obs.compare_reports ~expected (extra :: actual) <> [])

let test_pipeline_obs_does_not_change_result () =
  let f = random_program 42 40 in
  let plain = Driver.Pipeline.compile_passes new_pipeline f in
  let obs = Obs.create () in
  let observed = Driver.Pipeline.compile_passes ~obs new_pipeline f in
  checkb "same output with and without a recorder" true
    (Ir.Printer.func_to_string plain.output
    = Ir.Printer.func_to_string observed.output);
  checkb "phis counted" true (Obs.get obs Obs.Phis_inserted > 0);
  checkb "unions counted" true (Obs.get obs Obs.Phi_args_unioned > 0);
  checkb "convert span recorded" true
    (List.mem_assoc "convert" (Obs.spans obs))

let test_batch_merge_deterministic () =
  let funcs = List.init 6 (fun i -> random_program (i + 1) 30) in
  let sequential = Obs.create () in
  List.iter
    (fun f ->
      ignore (Driver.Pipeline.compile_passes ~obs:sequential new_pipeline f))
    funcs;
  let batched = Obs.create () in
  ignore
    (Driver.Pipeline.compile_batch_passes ~jobs:4 ~obs:batched new_pipeline
       funcs);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "batch counters = sequential counters" (Obs.counters sequential)
    (Obs.counters batched)

let test_engine_batch_obs () =
  let funcs = List.init 4 (fun i -> random_program (i + 10) 25) in
  let stats_copies =
    List.fold_left
      (fun acc f ->
        let _, (s : Core.Coalesce.stats) =
          Core.Coalesce.run (Ssa.Construct.run_exn f)
        in
        acc + s.copies_inserted)
      0 funcs
  in
  let obs = Obs.create () in
  ignore (Driver.Pipeline.compile_batch_passes ~jobs:3 ~obs new_pipeline funcs);
  checki "engine batch counts what its stats count" stats_copies
    (Obs.get obs Obs.Copies_inserted)

(* Power-of-two microsecond buckets, read back as upper edges. *)
let test_histogram_buckets () =
  let h = Obs.Histogram.make () in
  checki "empty quantile" 0 (Obs.Histogram.quantile_us h 0.5);
  List.iter (Obs.Histogram.record h) [ 0.5e-6; 1.5e-6; 3e-6; 3.5e-6; 1e-3 ];
  let c = Obs.Histogram.counts h in
  checki "every duration counted" 5 (Array.fold_left ( + ) 0 c);
  checki "<= 1 us" 1 c.(0);
  checki "(1, 2] us" 1 c.(1);
  checki "(2, 4] us" 2 c.(2);
  checki "(512, 1024] us" 1 c.(10);
  checki "p50 edge" 4 (Obs.Histogram.quantile_us h 0.5);
  checki "p99 edge" 1024 (Obs.Histogram.quantile_us h 0.99);
  Obs.Histogram.record h 1e9;
  checki "overflow lands in the last bucket" 1
    (Obs.Histogram.counts h).(Array.length c - 1)

let suite =
  [
    Alcotest.test_case "counter names unique" `Quick test_counter_names_unique;
    Alcotest.test_case "incr/add/get/reset" `Quick test_incr_add_get;
    Alcotest.test_case "full canonical vector" `Quick
      test_counters_vector_is_full;
    Alcotest.test_case "spans accumulate" `Quick test_spans_accumulate;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "JSON round trip" `Quick test_json_round_trip;
    Alcotest.test_case "compare_reports" `Quick test_compare_reports;
    Alcotest.test_case "recorder never changes the output" `Quick
      test_pipeline_obs_does_not_change_result;
    Alcotest.test_case "batch aggregation deterministic" `Quick
      test_batch_merge_deterministic;
    Alcotest.test_case "engine batch recorder" `Quick test_engine_batch_obs;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
  ]
