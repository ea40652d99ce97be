(* Tests for the Driver.Pipeline front door, including the full
   pipeline-matrix differential test: every combination of pruning,
   folding, simplify, dce, conversion and allocation must produce code with
   the same behaviour. *)

open Helpers

(* Conversion items of a pipeline spec. *)
let conversions =
  [ "standard"; "coalesce"; "coalesce:no-filters"; "sreedhar-i"; "briggs"; "briggs-star" ]

let compile spec f = Driver.Pipeline.compile_passes (Pass.Spec.parse_exn spec) f

let test_default_pipeline () =
  let f = Workloads.Suite.(find_exn "saxpy").func in
  let r = Driver.Pipeline.compile_passes new_pipeline f in
  checkb "stages recorded" true (List.length r.stages >= 2);
  checkb "output is phi-free" true
    (Array.for_all (fun (b : Ir.block) -> b.phis = []) r.output.Ir.blocks);
  assert_equiv ~args:[ Ir.Int 30; Ir.Int 2 ] "default" f r.output

let test_full_pipeline_with_allocation () =
  let f = Workloads.Suite.(find_exn "twldrv").func in
  let r = compile "construct:pruned,simplify,dce,coalesce,regalloc:8" f in
  let names = List.map (fun (s : Driver.Pipeline.stage) -> s.name) r.stages in
  check
    Alcotest.(list string)
    "stage order"
    [ "ssa"; "simplify"; "dce"; "coalesce"; "regalloc" ]
    names;
  checkb "at most 8 registers" true (r.output.Ir.nregs <= 8);
  (* Allocated code still behaves (modulo the spill array). *)
  let args = [ Ir.Int 60; Ir.Int 3 ] in
  let a = Interp.run ~args f in
  let b = Interp.run ~args r.output in
  checkb "return value preserved" true (a.return_value = b.return_value)

(* Every function of a multi-function source compiles on its own. *)
let test_compile_source () =
  let rs =
    List.map
      (Driver.Pipeline.compile_passes new_pipeline)
      (Frontend.Lower.compile
         "func one() { return 1; } func two() { return 2; }")
  in
  checki "two reports" 2 (List.length rs);
  List.iteri
    (fun i r ->
      checkb "value" true
        ((Interp.run ~args:[] r.Driver.Pipeline.output).return_value
        = Some (Ir.Int (i + 1))))
    rs

let test_pp_report () =
  let f = Workloads.Suite.(find_exn "saxpy").func in
  let r = compile "construct:pruned,simplify,dce,coalesce" f in
  let s = Format.asprintf "%a" Driver.Pipeline.pp_report r in
  checkb "mentions coalesce" true (contains s "coalesce");
  checkb "mentions classes" true (contains s "classes")

(* The matrix: all conversions × analysis options agree with the source
   semantics on random programs. *)
let prop_config_matrix =
  QCheck.Test.make ~count:25 ~name:"configuration matrix is semantics-preserving"
    QCheck.(pair (int_bound 10_000) (int_range 10 40))
    (fun (seed, size) ->
      let f = random_program seed size in
      let reference = Interp.run ~args:run_args f in
      List.for_all
        (fun conversion ->
          List.for_all
            (fun construct ->
              let r = compile (construct ^ "," ^ conversion) f in
              outcomes_equal reference (Interp.run ~args:run_args r.output))
            [
              "construct:pruned";
              "construct:pruned+nofold,simplify,dce";
              "construct:minimal,dce";
              "construct:semi-pruned,simplify";
            ])
        conversions)

(* Allocation on top of every conversion stays correct. *)
let prop_matrix_with_allocation =
  QCheck.Test.make ~count:15 ~name:"matrix + register allocation"
    QCheck.(triple (int_bound 10_000) (int_range 10 35) (int_range 4 9))
    (fun (seed, size, k) ->
      let f = random_program seed size in
      let reference = Interp.run ~args:run_args f in
      List.for_all
        (fun conversion ->
          let r =
            compile
              (Printf.sprintf "construct:pruned,%s,regalloc:%d" conversion k)
              f
          in
          let o = Interp.run ~args:run_args r.output in
          reference.return_value = o.return_value
          && r.output.Ir.nregs <= k)
        conversions)

let suite =
  [
    Alcotest.test_case "default pipeline" `Quick test_default_pipeline;
    Alcotest.test_case "full pipeline with allocation" `Quick
      test_full_pipeline_with_allocation;
    Alcotest.test_case "compile_source" `Quick test_compile_source;
    Alcotest.test_case "report printing" `Quick test_pp_report;
    QCheck_alcotest.to_alcotest prop_config_matrix;
    QCheck_alcotest.to_alcotest prop_matrix_with_allocation;
  ]
