(* The repository's end-to-end benchmark: four workloads, their
   end-to-end metrics, and a traced run that splits them into layers.

     main.exe run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-out PATH] [--json PATH]
     main.exe compare A.json... -- B.json... [--benchmark PATH]
     main.exe smoke [--benchmark PATH]
     main.exe serve-client PORT SEED SECONDS   (serve-open's generator)

   [run] prints a header, one line per metric
   ("workload metric value unit n=samples") and, last, one JSON object
   with [correct], [attempted], [failed] and [metrics]. It exits 1 when a
   check failed and 2 on a bad command line or when a workload's domains
   and load generators outnumber the machine's cores. See
   README.md for the workloads, metrics and bounds. *)

type workload = {
  name : string;
  domains : int;  (* compile domains the workload runs *)
  generators : int;  (* load-generator processes besides them *)
  run :
    seed:int -> seconds:float -> trace:bool -> setups:int -> spans:Spans.t -> Report.result;
}

let workloads =
  [
    { name = "suite-new"; domains = 1; generators = 0; run = Suite_run.run Suite_run.New_only };
    { name = "suite-graph"; domains = 1; generators = 0; run = Suite_run.run Suite_run.Graph_trio };
    { name = "corpus-stream"; domains = Corpus_run.jobs; generators = 0; run = Corpus_run.run };
    { name = "serve-open"; domains = Serve_run.jobs; generators = 1; run = Serve_run.run };
  ]

let usage () =
  prerr_endline
    "usage: main.exe run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
    \                    [--trace-out PATH] [--json PATH]\n\
    \       main.exe compare A.json... -- B.json... [--benchmark PATH]\n\
    \       main.exe smoke [--benchmark PATH]";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("main.exe: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* The run header                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit checked out, read from .git without running git; absent in
   an exported tree. *)
let git_commit () =
  let trim = String.trim in
  try
    let head = trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ r) then trim (read_file (".git/" ^ r))
      else
        read_file ".git/packed-refs" |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unavailable"
    else head
  with Sys_error _ -> "unavailable"

let cores () = Domain.recommended_domain_count ()

let header ~seed ~seconds ~trace =
  [
    ("cores", Json.Num (float (cores ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("seed", Json.Num (float seed));
    ("seconds", Json.Num seconds);
    ("trace", Json.Bool trace);
    ("commit", Json.Str (git_commit ()));
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Report.metric) ->
         ( m.name,
           Json.Obj
             [ ("value", Json.Num m.value); ("unit", Json.Str m.unit); ("n", Json.Num (float m.n)) ]
         ))
       ms)

let result_json (r : Report.result) =
  Json.Obj
    [
      ("name", Json.Str r.workload);
      ("attempted", Json.Num (float r.attempted));
      ("failed", Json.Num (float r.failed));
      ("invalid", match r.invalid with Some why -> Json.Str why | None -> Json.Null);
      ("seconds", Json.Num r.seconds);
      ("e2e", metrics_json r.e2e);
      ("layers", metrics_json r.layers);
      ("extras", metrics_json r.extras);
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) r.notes));
    ]

let print_result ~trace (r : Report.result) =
  Printf.printf "# %s: %d attempted, %d failed, measured %.2f s\n" r.workload r.attempted
    r.failed r.seconds;
  Option.iter (Printf.printf "# %s: INVALID RUN, not to be compared: %s\n" r.workload) r.invalid;
  let line (m : Report.metric) =
    Printf.printf "%s %s %.6g %s n=%d\n" r.workload m.name m.value m.unit m.n
  in
  List.iter line r.e2e;
  if trace then List.iter line r.layers;
  List.iter line r.extras;
  List.iter (fun n -> Printf.printf "# %s: %s\n" r.workload n) r.notes

(* The last line: one workload's metrics for BENCHMARK.json (end-to-end,
   or per-layer when traced); several workloads nest them by name. *)
let summary_json ~trace results =
  let attempted = List.fold_left (fun a (r : Report.result) -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a (r : Report.result) -> a + r.failed) 0 results in
  let gated (r : Report.result) =
    Json.Obj
      (List.map
         (fun (m : Report.metric) ->
           (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
         (if trace then r.layers else r.e2e))
  in
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Num (float attempted));
      ("failed", Json.Num (float failed));
      ( "metrics",
        match results with
        | [ r ] -> gated r
        | rs -> Json.Obj (List.map (fun (r : Report.result) -> (r.workload, gated r)) rs) );
    ]

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

(* Each generator needs a core of its own, beside the workload's compile
   domains. *)
let oversubscribed (w : workload) =
  let c = cores () in
  if w.domains + w.generators <= c then None
  else
    Some
      (Printf.sprintf
         "workload %s needs %d compile domains and %d load generators, but this machine has %d \
          cores"
         w.name w.domains w.generators c)

let run_workloads selected ~seed ~seconds ~trace ~trace_out ~setups =
  List.map
    (fun (w : workload) ->
      let spans = Spans.create () in
      let r = w.run ~seed ~seconds ~trace ~setups ~spans in
      (if trace then
         let path =
           match trace_out with
           | Some p when List.length selected = 1 -> p
           | Some p -> Printf.sprintf "%s.%s.json" (Filename.remove_extension p) w.name
           | None ->
             if not (Sys.file_exists "e2e-traces") then Sys.mkdir "e2e-traces" 0o755;
             Filename.concat "e2e-traces" (w.name ^ ".json")
         in
         Spans.write spans path;
         Printf.printf "# %s: %d spans written to %s\n" w.name spans.nkept path);
      r)
    selected

let cmd_run args =
  let names = ref [] and seed = ref 11 and seconds = ref 20. and trace = ref false in
  let trace_out = ref None and json = ref None in
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> fail "%s: not an integer: %s" flag v in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> names := !names @ [ v ]; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := s
      | _ -> fail "--seconds: not a positive number: %s" v);
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | a :: _ -> fail "run: unexpected argument %s" a
  in
  parse args;
  let selected =
    match !names with
    | [] -> workloads
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (w : workload) -> w.name = n) workloads with
          | Some w -> w
          | None -> fail "unknown workload %s" n)
        names
  in
  List.iter (fun w -> Option.iter (fail "%s") (oversubscribed w)) selected;
  let head = header ~seed:!seed ~seconds:!seconds ~trace:!trace in
  Printf.printf "# e2e benchmark: %s\n%!"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ match v with Json.Str s -> s | v -> Json.to_string v) head));
  let results =
    run_workloads selected ~seed:!seed ~seconds:!seconds ~trace:!trace ~trace_out:!trace_out
      ~setups:5
  in
  List.iter (print_result ~trace:!trace) results;
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("schema", Json.Str "repro-e2e/1");
                    ("header", Json.Obj head);
                    ("workloads", Json.Arr (List.map result_json results));
                  ]));
          output_char oc '\n'))
    !json;
  print_endline (Json.to_string (summary_json ~trace:!trace results));
  if List.exists (fun (r : Report.result) -> r.failed > 0) results then exit 1

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; better : string; bound : float option }

let declared_metrics path key =
  let j = Json.read_file path in
  List.map
    (fun m ->
      {
        d_name = Json.to_str (Json.member_exn "name" m);
        d_unit = Json.to_str (Json.member_exn "unit" m);
        better = Json.to_str (Json.member_exn "better" m);
        bound = Option.map Json.to_float (Json.member "bound" m);
      })
    (Json.to_list (Json.member_exn key j))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Each run file's end-to-end values, keyed by (workload, metric). A
   workload its run marked invalid is left out, with a warning. *)
let run_values path =
  let j = Json.read_file path in
  List.concat_map
    (fun w ->
      let name = Json.to_str (Json.member_exn "name" w) in
      match Json.member "invalid" w with
      | Some (Json.Str why) ->
        Printf.eprintf "compare: %s: %s left out, invalid run: %s\n" path name why;
        []
      | _ ->
        List.map
          (fun (m, v) -> ((name, m), Json.to_float (Json.member_exn "value" v)))
          (Json.to_assoc (Json.member_exn "e2e" w)))
    (Json.to_list (Json.member_exn "workloads" j))

let cmd_compare args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  let benchmark, args =
    let rec pick acc = function
      | "--benchmark" :: p :: rest -> (Some p, List.rev_append acc rest)
      | x :: rest -> pick (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    pick [] args
  in
  let a_files, b_files = split [] args in
  if a_files = [] || b_files = [] then usage ();
  let declared = declared_metrics (Option.value benchmark ~default:"BENCHMARK.json") "end_to_end" in
  let values files = List.concat_map run_values files in
  let a = values a_files and b = values b_files in
  let keys = List.sort_uniq compare (List.map fst (a @ b)) in
  Printf.printf "%-14s %-22s %12s %12s %12s %12s %8s  %s\n" "workload" "metric" "A median"
    "A IQR" "B median" "B IQR" "delta" "verdict";
  let worst = ref "ok" in
  List.iter
    (fun ((w, m) as key) ->
      match List.find_opt (fun d -> d.d_name = m) declared with
      | None -> ()
      | Some d ->
        let xs side = List.filter_map (fun (k, v) -> if k = key then Some v else None) side in
        let xa = xs a and xb = xs b in
        if xa = [] || xb = [] then begin
          (* Every run of one side left this workload out as invalid. *)
          worst := (if !worst = "regressed" then !worst else "unresolved");
          Printf.printf "%-14s %-22s %12s %12s %12s %12s %8s  unresolved (no valid run on one side)\n"
            w m "-" "-" "-" "-" "-"
        end
        else begin
          let q1a, ma, q3a = Stats.quartiles xa and q1b, mb, q3b = Stats.quartiles xb in
          let delta = if ma = 0. then 0. else (mb -. ma) /. Float.abs ma in
          let worse = if d.better = "lower" then delta else -.delta in
          let spread = Float.max ((q3a -. q1a) /. Float.abs ma) ((q3b -. q1b) /. Float.abs mb) in
          let bound = Option.value d.bound ~default:0. in
          (* A spread wider than the bound leaves the change unresolved,
             unless every B run reads better than every A run. *)
          let better_everywhere =
            let fold f = List.fold_left f (List.hd xa) in
            if d.better = "lower" then
              List.fold_left Float.max (List.hd xb) xb < fold Float.min xa
            else List.fold_left Float.min (List.hd xb) xb > fold Float.max xa
          in
          let verdict =
            if d.d_unit = "count" then (if worse > 0. then "regressed" else "ok")
            else if spread > bound && not better_everywhere then "unresolved"
            else if worse > bound then "regressed"
            else "ok"
          in
          if verdict = "regressed" || (verdict = "unresolved" && !worst = "ok") then worst := verdict;
          Printf.printf "%-14s %-22s %12.6g %12.4g %12.6g %12.4g %+7.2f%%  %s\n" w m ma
            (q3a -. q1a) mb (q3b -. q1b) (delta *. 100.) verdict
        end)
    keys;
  Printf.printf "overall: %s\n" !worst;
  if !worst = "regressed" then exit 1

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* Every workload briefly, traced, so both metric sets are produced;
   asserts each metric BENCHMARK.json declares is reported with its unit
   and that no check failed. A workload that needs more cores than the
   machine has is skipped with a note rather than run oversubscribed. *)
let cmd_smoke args =
  let benchmark = match args with [ "--benchmark"; p ] -> p | [] -> "BENCHMARK.json" | _ -> usage () in
  let e2e = declared_metrics benchmark "end_to_end" in
  let per_layer = declared_metrics benchmark "per_layer" in
  let trace_out = "e2e-smoke-trace.json" in
  let selected =
    List.filter
      (fun w ->
        match oversubscribed w with
        | None -> true
        | Some why ->
          Printf.printf "smoke: skipped: %s\n" why;
          false)
      workloads
  in
  let results =
    run_workloads selected ~seed:11 ~seconds:1.2 ~trace:true ~trace_out:(Some trace_out) ~setups:1
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (r : Report.result) ->
      Printf.printf "smoke: %s: %d attempted, %d failed, %d + %d metrics\n" r.workload
        r.attempted r.failed (List.length r.e2e) (List.length r.layers);
      if r.failed > 0 then List.iter (fun n -> Printf.printf "smoke: %s: %s\n" r.workload n) r.notes;
      if r.failed > 0 then problem "%s: %d checks failed" r.workload r.failed;
      let expect kind declared (got : Report.metric list) =
        List.iter
          (fun d ->
            match List.find_opt (fun (m : Report.metric) -> m.name = d.d_name) got with
            | None -> problem "%s: %s metric %s not reported" r.workload kind d.d_name
            | Some m when m.unit <> d.d_unit ->
              problem "%s: %s is in %s, declared %s" r.workload d.d_name m.unit d.d_unit
            | Some m when not (Float.is_finite m.value) ->
              problem "%s: %s is not a number" r.workload d.d_name
            | Some _ -> ())
          declared;
        List.iter
          (fun (m : Report.metric) ->
            if not (List.exists (fun d -> d.d_name = m.name) declared) then
              problem "%s: %s metric %s is not declared" r.workload kind m.name)
          got
      in
      expect "end-to-end" e2e r.e2e;
      expect "per-layer" per_layer r.layers;
      let trace = Printf.sprintf "%s.%s.json" (Filename.remove_extension trace_out) r.workload in
      (match Json.read_file trace with
      | j -> if Json.to_list (Json.member_exn "traceEvents" j) = [] then problem "%s: empty trace" r.workload
      | exception e -> problem "%s: trace unreadable: %s" r.workload (Printexc.to_string e));
      if Sys.file_exists trace then Sys.remove trace)
    results;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> cmd_run args
  | "compare" :: args -> cmd_compare args
  | "smoke" :: args -> cmd_smoke args
  | "serve-client" :: args -> Serve_run.client_main args
  | _ -> usage ()
