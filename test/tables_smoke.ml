(* Miniature tables run: Harness.Pipelines.evaluate — the evaluation the
   bench `tables` target prints — over a few kernels plus the numeric
   large workloads, minus all timing, so it is deterministic and
   runtest-fast (alias @tables-smoke). The evaluation itself asserts the
   paper's invariants (validated outputs, identical Briggs/Briggs*
   decisions, the >= 10x aggregate peak-graph-memory ratio); this prints
   every deterministic per-routine column, one line per route, for the
   rule to diff against test/golden/tables_smoke.expected. After an
   intended change to those columns, `dune promote` accepts the new
   output. *)

module P = Harness.Pipelines

let print_route (t : P.routine) (r : P.route) =
  Printf.printf "%s %s static=%d inserted=%d eliminated=%d model=%d"
    t.entry.name (P.name r.pipeline) r.static_copies r.copies_inserted
    r.copies_eliminated r.model_bytes;
  Option.iter
    (fun (g : Baseline.Ig_coalesce.stats) ->
      let peak = List.fold_left max 0 in
      Printf.printf " rounds=%d nodes=%d edges=%d graph_bytes=%s" g.rounds
        (peak g.graph_nodes_per_round)
        (peak g.graph_edges_per_round)
        (String.concat "," (List.map string_of_int g.graph_bytes_per_round)))
    r.graph;
  Option.iter (Printf.printf " dynamic=%d") r.copies_executed;
  Option.iter
    (fun (a : Regalloc.stats) ->
      Printf.printf " spilled=%d loads=%d stores=%d colors=%d" a.spilled_ranges
        a.spill_loads a.spill_stores a.colors_used)
    r.allocation;
  print_newline ()

let () =
  let kernels =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        List.mem e.name [ "saxpy"; "tomcatv"; "deseco"; "rkf45" ])
      (Workloads.Suite.kernels ())
  in
  let large =
    List.filter
      (fun (e : Workloads.Suite.entry) -> String.starts_with ~prefix:"num" e.name)
      (Workloads.Suite.large ())
  in
  let ev = P.evaluate ~registers:8 ~kernels ~large in
  List.iter
    (fun (t : P.routine) ->
      List.iter (print_route t) t.routes;
      Option.iter
        (Printf.printf "%s Sreedhar-I static=%d\n" t.entry.name)
        t.sreedhar_copies)
    ev.routines
