(* Tests for the experiment harness: table formatting, averaging, pipeline
   drivers and their statistics. *)

open Helpers

let test_fmt_seconds () =
  check Alcotest.string "ns" "500ns" (Harness.Tables.fmt_seconds 5e-7);
  check Alcotest.string "us" "12.00us" (Harness.Tables.fmt_seconds 1.2e-5);
  check Alcotest.string "ms" "3.40ms" (Harness.Tables.fmt_seconds 3.4e-3);
  check Alcotest.string "s" "2.50s" (Harness.Tables.fmt_seconds 2.5)

let test_fmt_bytes () =
  check Alcotest.string "B" "512B" (Harness.Tables.fmt_bytes 512);
  check Alcotest.string "KB" "2.0KB" (Harness.Tables.fmt_bytes 2048);
  check Alcotest.string "MB" "3.00MB" (Harness.Tables.fmt_bytes (3 * 1024 * 1024))

let test_average () =
  checkb "empty" true (Harness.Tables.average [] = 0.);
  checkb "mean" true (Harness.Tables.average [ 1.; 2.; 3. ] = 2.)

let test_table_rendering () =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  Harness.Tables.print ~out ~title:"T" ~header:[ "a"; "bb" ]
    [ [ "x"; "1" ]; [ "yyyy"; "22" ] ];
  Format.pp_print_flush out ();
  let s = Buffer.contents buf in
  checkb "title" true (contains s "T");
  checkb "padded first column" true (contains s "yyyy  22");
  checkb "right-aligned numbers" true (contains s "x      1")

let test_pipelines_consistent () =
  (* The four pipelines on one kernel:
     φ-free outputs, equivalent semantics, and Briggs graphs at least as
     big as Briggs*. *)
  let e = Workloads.Suite.find_exn "deseco" in
  let results =
    List.map
      (fun p -> (p, Harness.Pipelines.convert p e.func))
      Harness.Pipelines.all
  in
  let reference = Interp.run ~args:e.args e.func in
  List.iter
    (fun ((p : Harness.Pipelines.pipeline), (r : Harness.Pipelines.result)) ->
      checkb (Harness.Pipelines.name p ^ " phi-free") true
        (Array.for_all (fun (b : Ir.block) -> b.Ir.phis = []) r.func.Ir.blocks);
      checkb
        (Harness.Pipelines.name p ^ " equivalent")
        true
        (outcomes_equal reference (Interp.run ~args:e.args r.func));
      checkb (Harness.Pipelines.name p ^ " memory accounted") true (r.aux_bytes > 0))
    results;
  let find p = List.assoc p results in
  let briggs = find Harness.Pipelines.Briggs in
  let star = find Harness.Pipelines.Briggs_star in
  checki "identical copy counts" briggs.static_copies star.static_copies;
  checkb "graph rounds recorded" true (briggs.ig_rounds >= 1 && star.ig_rounds >= 1);
  checkb "restricted graph no bigger than full" true
    (star.ig_peak_nodes <= briggs.ig_peak_nodes
    && star.ig_peak_edges <= briggs.ig_peak_edges)

let test_allocated_pipelines_equiv () =
  (* Every conversion followed by register allocation, through the pass
     manager's --check door: translation validation (Check.equiv against
     the original, spill slab excluded) runs inside compile_spec, so a
     plain return here means every allocated output of every pipeline is
     observationally equivalent to its input. *)
  List.iter
    (fun kernel ->
      let e = Workloads.Suite.find_exn kernel in
      List.iter
        (fun p ->
          let spec = Harness.Pipelines.spec_of p ^ ",regalloc:8" in
          let r = Harness.Pipelines.compile_spec ~check:true spec e.func in
          checkb
            (Harness.Pipelines.name p ^ " allocated " ^ kernel ^ " is phi-free")
            true
            (Array.for_all
               (fun (b : Ir.block) -> b.Ir.phis = [])
               r.output.Ir.blocks))
        Harness.Pipelines.all)
    [ "deseco"; "tomcatv"; "rkf45" ]

let test_dynamic_copies_helper () =
  let e = Workloads.Suite.find_exn "saxpy" in
  let std = Harness.Pipelines.convert Harness.Pipelines.Standard e.func in
  let new_ = Harness.Pipelines.convert Harness.Pipelines.New e.func in
  let d r = Harness.Pipelines.dynamic_copies r ~args:e.args in
  checkb "new executes fewer copies" true (d new_ < d std)

let test_measure_smoke () =
  (* The Bechamel wrapper returns a plausible positive estimate. *)
  let t = Harness.Measure.seconds ~quota_s:0.02 ~name:"smoke" (fun () -> Sys.opaque_identity (1 + 1)) in
  checkb "positive" true (t > 0.);
  checkb "well under a millisecond" true (t < 1e-3)

let suite =
  [
    Alcotest.test_case "fmt_seconds" `Quick test_fmt_seconds;
    Alcotest.test_case "fmt_bytes" `Quick test_fmt_bytes;
    Alcotest.test_case "average" `Quick test_average;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "pipelines consistent" `Quick test_pipelines_consistent;
    Alcotest.test_case "allocated pipelines equiv" `Quick
      test_allocated_pipelines_equiv;
    Alcotest.test_case "dynamic copies helper" `Quick test_dynamic_copies_helper;
    Alcotest.test_case "measure smoke" `Quick test_measure_smoke;
  ]
