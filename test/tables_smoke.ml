(* Miniature four-pipeline tables run — the structural invariants the
   bench `tables` mode asserts, minus all timing, fast enough for
   `dune runtest` (alias @tables-smoke). Over a few kernels plus the
   numeric large workloads:

   - every conversion's output is φ-free and translation-validates
     against its input (Check.equiv);
   - the graph pair — Briggs and Briggs* — leaves identical static copy
     counts and round counts per workload;
   - the copy-restricted graph is never bigger than the full one, and
     the aggregate Briggs / Briggs* peak-graph-memory ratio clears the
     paper's order-of-magnitude bar (>= 10x, Tables 1 and 3). *)

module P = Harness.Pipelines

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("tables-smoke: " ^ m);
      exit 1)
    fmt

let peak_bytes (r : P.result) = List.fold_left max 0 r.P.ig_bytes_per_round

let () =
  let kernels =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        List.mem e.name [ "saxpy"; "tomcatv"; "deseco"; "rkf45" ])
      (Workloads.Suite.kernels ())
  in
  let numeric =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        String.length e.name >= 3 && String.sub e.name 0 3 = "num")
      (Workloads.Suite.large ())
  in
  if List.length kernels < 4 then fail "kernel subset missing";
  if List.length numeric < 2 then fail "numeric large workloads missing";
  let briggs_sum = ref 0 and star_sum = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let results = List.map (fun p -> (p, P.convert p e.func)) P.all in
      List.iter
        (fun (p, (r : P.result)) ->
          if
            not
              (Array.for_all
                 (fun (b : Ir.block) -> b.Ir.phis = [])
                 r.P.func.Ir.blocks)
          then fail "%s: %s output has phi-nodes" e.name (P.name p);
          match Check.equiv ~reference:e.func r.P.func with
          | Ok () -> ()
          | Error m ->
            fail "%s: %s changed semantics: %s" e.name (P.name p)
              (Format.asprintf "%a" Check.pp_mismatch m))
        results;
      let find p = List.assoc p results in
      let briggs = find P.Briggs and star = find P.Briggs_star in
      if briggs.P.static_copies <> star.P.static_copies then
        fail "%s: Briggs %d copies vs Briggs* %d" e.name briggs.P.static_copies
          star.P.static_copies;
      if briggs.P.ig_rounds <> star.P.ig_rounds then
        fail "%s: Briggs %d rounds vs Briggs* %d" e.name briggs.P.ig_rounds
          star.P.ig_rounds;
      if
        star.P.ig_peak_nodes > briggs.P.ig_peak_nodes
        || star.P.ig_peak_edges > briggs.P.ig_peak_edges
      then fail "%s: restricted graph bigger than full graph" e.name;
      briggs_sum := !briggs_sum + peak_bytes briggs;
      star_sum := !star_sum + peak_bytes star)
    (kernels @ numeric);
  let ratio = float_of_int !briggs_sum /. float_of_int (max 1 !star_sum) in
  if ratio < 10.0 then
    fail "aggregate Briggs/Briggs* peak memory ratio %.1f < 10" ratio;
  Printf.printf
    "tables-smoke: %d workloads x %d pipelines OK (memory ratio %.0fx)\n"
    (List.length kernels + List.length numeric)
    (List.length P.all) ratio
