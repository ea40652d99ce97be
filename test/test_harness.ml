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
  (* The four pipelines on one kernel, through the door:
     φ-free outputs, equivalent semantics, and the same copies left by
     Briggs and Briggs*. *)
  let e = Workloads.Suite.find_exn "deseco" in
  let results =
    List.map
      (fun p ->
        ( p,
          (Harness.Pipelines.compile_spec (Harness.Pipelines.spec_of p) e.func)
            .output ))
      Harness.Pipelines.all
  in
  let reference = Interp.run ~args:e.args e.func in
  List.iter
    (fun ((p : Harness.Pipelines.pipeline), (out : Ir.func)) ->
      checkb (Harness.Pipelines.name p ^ " phi-free") true
        (Array.for_all (fun (b : Ir.block) -> b.Ir.phis = []) out.Ir.blocks);
      checkb
        (Harness.Pipelines.name p ^ " equivalent")
        true
        (outcomes_equal reference (Interp.run ~args:e.args out)))
    results;
  let copies p = Ir.count_copies (List.assoc p results) in
  checki "identical copy counts"
    (copies Harness.Pipelines.Briggs)
    (copies Harness.Pipelines.Briggs_star)

let test_evaluate_memory_identity () =
  (* One small kernel cannot show Briggs*'s order-of-magnitude graph
     saving (its mapping array dominates): the evaluation refuses it
     rather than report a suite that misses the paper's claim. *)
  let e = Workloads.Suite.find_exn "deseco" in
  checkb "memory ratio below 10 refused" true
    (match Harness.Pipelines.evaluate ~registers:8 ~kernels:[ e ] ~large:[] with
    | _ -> false
    | exception Failure m -> contains m "memory ratio")

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

let test_dynamic_copy_count () =
  let e = Workloads.Suite.find_exn "saxpy" in
  let d p =
    (Interp.run ~args:e.args
       (Harness.Pipelines.compile_spec (Harness.Pipelines.spec_of p) e.func)
         .output)
      .stats
      .copies_executed
  in
  checkb "new executes fewer copies" true
    (d Harness.Pipelines.New < d Harness.Pipelines.Standard)

let suite =
  [
    Alcotest.test_case "fmt_seconds" `Quick test_fmt_seconds;
    Alcotest.test_case "fmt_bytes" `Quick test_fmt_bytes;
    Alcotest.test_case "average" `Quick test_average;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "pipelines consistent" `Quick test_pipelines_consistent;
    Alcotest.test_case "evaluate memory identity" `Quick
      test_evaluate_memory_identity;
    Alcotest.test_case "allocated pipelines equiv" `Quick
      test_allocated_pipelines_equiv;
    Alcotest.test_case "dynamic copies helper" `Quick test_dynamic_copy_count;
  ]
