(* Golden metrics-regression driver (the @metrics-smoke alias).

   Runs the workload kernel suite through all four conversion routes with an
   Obs recorder attached and compares the counter vectors against the
   committed golden file. Counters are deterministic for a fixed input set,
   so the declared tolerances are all zero — any drift means an algorithmic
   change and must be acknowledged by regenerating the snapshot:

     dune exec test/metrics_regression.exe -- --update-golden FILE

   Before comparing, the harness validates itself with a negative control:
   the "new" route re-run with the five liveness filters disabled must NOT
   match its golden vector (a weakened coalescer shifts work from the
   filters to the forest walk). A comparator that waves that through would
   also wave real regressions through.

   Usage: metrics_regression.exe [--update-golden] GOLDEN_FILE *)

(* Per-counter relative tolerances. Every counter the pipeline records is
   deterministic (sums over a fixed input set, merged in input order), so
   everything is exact; the table exists so a future nondeterministic
   counter can declare slack explicitly instead of silently loosening the
   whole suite. *)
let tolerances : (string * float) list = []

let routes = Harness.Obs_report.default_routes

let collect () =
  let funcs =
    List.map
      (fun (e : Workloads.Suite.entry) -> e.func)
      (Workloads.Suite.kernels ())
  in
  (funcs, Harness.Obs_report.collect ~routes funcs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let update_golden path report =
  let oc = open_out path in
  output_string oc (Obs.report_to_json report);
  close_out oc;
  Printf.printf "metrics: wrote %s\n" path

let check_golden path (funcs : Ir.func list) actual =
  let expected = read_file path |> Obs.report_of_json in
  (* Negative control: a deliberately weakened coalescer (filters off) must
     drift from the golden "new" vector, or the comparator is broken. *)
  let weakened =
    Harness.Obs_report.collect
      ~routes:[ ("new", Pass.Spec.parse_exn "construct:pruned,coalesce:no-filters") ]
      funcs
  in
  (match
     Obs.compare_reports ~tolerances
       ~expected:(List.filter (fun (r, _) -> r = "new") expected)
       weakened
   with
  | [] ->
    prerr_endline
      "metrics: NEGATIVE CONTROL FAILED — disabling the coalescer's \
       liveness filters did not perturb any golden counter; the comparator \
       would miss real regressions";
    exit 1
  | _ -> ());
  match Obs.compare_reports ~tolerances ~expected actual with
  | [] ->
    Printf.printf "metrics: %d routes x %d counters match %s\n"
      (List.length actual)
      (match actual with
      | (_, (s : Obs.Snapshot.t)) :: _ -> List.length s.counters
      | [] -> 0)
      path
  | drifts ->
    Printf.eprintf
      "metrics: %d counter(s) drifted from the golden snapshot %s:\n"
      (List.length drifts) path;
    List.iter
      (fun d -> Format.eprintf "  %a@." Obs.pp_drift d)
      drifts;
    prerr_endline
      "metrics: if the drift is an intended algorithmic change, regenerate \
       with:\n\
      \  dune exec test/metrics_regression.exe -- --update-golden \
       test/golden/metrics.json";
    exit 1

let () =
  let update, path =
    match Array.to_list Sys.argv |> List.tl with
    | [ "--update-golden"; p ] -> (true, p)
    | [ p ] -> (false, p)
    | _ ->
      prerr_endline "usage: metrics_regression [--update-golden] GOLDEN_FILE";
      exit 2
  in
  let funcs, report = collect () in
  if update then update_golden path report
  else check_golden path funcs report
