(* Byte-identity pins for printed IR. Each case runs one pipeline spec over
   a fixed input set and folds every printed stage of every report (each
   pass's snapshot, then the output) into one FNV-1a 64 digest. Cache keys
   hash printed text, so a change to how registers are named or numbered
   shows up here first, with the spec that moved. *)

let fnv1a64 h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let inputs =
  lazy
    (let entries l = List.map (fun (e : Workloads.Suite.entry) -> e.func) l in
     let gen = Workloads.Generator.generate_ir in
     let num = Workloads.Generator.generate_numeric_ir in
     let cfg seed size =
       { Workloads.Generator.seed; size; num_vars = 16; max_depth = 4 }
     in
     entries (Workloads.Suite.kernels ())
     @ entries (Workloads.Suite.adversarial ())
     (* Suite.large's big300 and num250, built without their larger
        siblings. *)
     @ [ gen (cfg 101 300); num (cfg 201 250) ]
     @ List.concat_map
         (fun size ->
           List.init 10 (fun i ->
               gen { Workloads.Generator.default with seed = 500 + i; size }))
         [ 15; 30; 60 ])

let digest spec =
  let pipeline =
    match Pass.Spec.parse spec with
    | Ok p -> p
    | Error msg -> Alcotest.fail (spec ^ ": " ^ msg)
  in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun f ->
      let r = Pass.run pipeline f in
      List.iter
        (fun (s : Pass.stage) ->
          h := fnv1a64 !h s.name;
          h := fnv1a64 !h (Ir.Printer.func_to_string s.func))
        r.stages;
      h := fnv1a64 !h (Ir.Printer.func_to_string r.output))
    (Lazy.force inputs);
  Printf.sprintf "%016Lx" !h

let pinned =
  [
    ("construct:pruned,coalesce", "17239d60910b5440");
    ("construct:pruned,standard", "c1942ad5c8c7960e");
    ("construct:pruned,briggs", "13cc6560fb92d491");
    ("construct:pruned,briggs-star", "f5736f656b04e8c7");
    ("construct:pruned,coalesce,regalloc:4", "c66c2f48a2eac5bb");
    ( "construct:semi-pruned,copy-prop,simplify,dce,coalesce,regalloc:8",
      "d744f95373d80e7a" );
    ("construct:minimal+nofold,sreedhar-i", "10a29bf2cdacbef2");
  ]

let suite =
  List.map
    (fun (spec, hex) ->
      Alcotest.test_case ("printed stages: " ^ spec) `Quick (fun () ->
          Alcotest.(check string) spec hex (digest spec)))
    pinned
