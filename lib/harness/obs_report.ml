let default_routes =
  List.map
    (fun (name, spec) -> (name, Pass.Spec.parse_exn spec))
    [
      ("standard", "construct:pruned,standard");
      ("new", "construct:pruned,coalesce");
      ("briggs*", "construct:pruned,briggs-star");
      ("sreedhar-i", "construct:pruned,sreedhar-i");
    ]

let collect ?jobs ?(routes = default_routes) funcs : Obs.report =
  List.map
    (fun (name, pipeline) ->
      let obs = Obs.create () in
      ignore (Driver.Pipeline.compile_batch_passes ?jobs ~obs pipeline funcs);
      (name, Obs.snapshot obs))
    routes

let print ?out (report : Obs.report) =
  let header = "counter" :: List.map fst report in
  (* Union of counter names across routes (extras — e.g. the compile
     cache's — may be present on only some), preserving first-seen order. *)
  let counter_keys =
    List.fold_left
      (fun acc (_, (s : Obs.Snapshot.t)) ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc s.counters)
      [] report
  in
  let cell (s : Obs.Snapshot.t) key =
    match List.assoc_opt key s.counters with
    | Some v -> string_of_int v
    | None -> "-"
  in
  let rows =
    List.map
      (fun key -> key :: List.map (fun (_, s) -> cell s key) report)
      counter_keys
  in
  Tables.print ?out ~title:"Operation counts per conversion route" ~header
    rows;
  (* Union of span names, preserving each route's first-seen order. *)
  let span_keys =
    List.fold_left
      (fun acc (_, (s : Obs.Snapshot.t)) ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc s.spans)
      [] report
  in
  if span_keys <> [] then begin
    let cell (s : Obs.Snapshot.t) key =
      match List.assoc_opt key s.spans with
      | Some v -> Tables.fmt_seconds v
      | None -> "-"
    in
    let rows =
      List.map
        (fun key -> key :: List.map (fun (_, s) -> cell s key) report)
        span_keys
    in
    Tables.print ?out ~title:"Phase times per conversion route" ~header rows
  end
