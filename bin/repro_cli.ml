(* Command-line driver: compile mini-language sources and show every stage
   of the SSA-coalescing pipeline, run programs, and compare coalescers. *)

open Cmdliner

(* Exit codes: 0 success; 1 a fuzz discrepancy was found; 2 the input
   could not be parsed, or is not a strict, phi-free CFG (usage errors
   keep cmdliner's own 124); 3 the program faulted under the interpreter;
   125 internal error. User-facing failures are printed as diagnostics on
   stderr, never as raw exception backtraces. *)
let exit_parse_error = 2
let exit_runtime_fault = 3
let exit_internal_error = 125

exception Input_error of string

(* A corpus file as a producer; a line that does not parse is an input
   error located at that line of the file. *)
let read_corpus path =
  let next = Workloads.Corpus.read_funcs path in
  fun () ->
    try next ()
    with Ir.Parse.Error (msg, line) ->
      raise (Input_error (Printf.sprintf "%s:%d: %s" path line msg))

(* The title and the stage notes are '#' comments, so a dump reads back
   as IR text. *)
let print_func ?(stages = []) title f =
  Printf.printf "# ==== %s ====\n%s\n\n" title (Ir.Printer.func_to_string f);
  List.iter
    (fun (s : Driver.Pipeline.stage) ->
      Printf.printf "# %-10s %s\n" s.name s.note)
    stages

(* Every compile goes through the pass manager's door, which refuses an
   input that is not a strict, phi-free CFG (Ir.Validate.Invalid, exit 2).
   A bad spec is an input error too. *)
let pipeline_of_spec spec =
  match Pass.Spec.parse spec with
  | Ok pipeline -> pipeline
  | Error msg -> raise (Input_error msg)

let compile_route route f = Harness.Pipelines.(compile_spec (spec_of route) f)

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let args_arg =
  Arg.(value & opt (list float) [] & info [ "args" ] ~doc:"Arguments (floats).")

let values =
  List.map (fun x ->
      if Float.is_integer x then Ir.Int (int_of_float x) else Ir.Float x)

(* Interpret [f] on [vals]; a wrong argument count is the caller's input
   error (exit 2), as the serve protocol answers it, not a fault. *)
let interp_run (f : Ir.func) vals =
  let want = List.length f.params and got = List.length vals in
  if want <> got then
    raise
      (Input_error
         (Printf.sprintf "%s takes %d argument(s), --args gave %d" f.name want
            got));
  Interp.run ~args:vals f

(* Every stage but the input CFG is a route's report: its output, or for
   "ssa" the construction snapshot every pipeline starts with. *)
let dump_stages =
  Harness.Pipelines.
    [
      ("ssa", (New, "pruned SSA, copies folded"));
      ("standard", (Standard, "Standard phi instantiation"));
      ("new", (New, "New coalescer"));
      ("briggs", (Briggs, "briggs"));
      ("briggs-star", (Briggs_star, "briggs-star"));
    ]

let dump_cmd =
  let stage_names = "cfg" :: List.map fst dump_stages in
  let stage =
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s, s)) stage_names)) "new"
      & info [ "stage" ] ~doc:"Pipeline stage to dump: $(docv)."
          ~docv:(String.concat "|" stage_names))
  in
  let run path stage =
    List.iter
      (fun f ->
        match List.assoc_opt stage dump_stages with
        | None -> print_func (f.Ir.name ^ " (input CFG)") f
        | Some (route, title) ->
          let r = compile_route route f in
          let stages, g =
            if stage = "ssa" then
              let s = List.hd r.stages in
              ([ s ], s.func)
            else (r.stages, r.output)
          in
          print_func ~stages (Printf.sprintf "%s (%s)" f.Ir.name title) g)
      (Frontend.Load.file path);
    0
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Show the IR of a pipeline stage")
    Term.(const run $ path_arg $ stage)

let run_cmd =
  let pipeline =
    Arg.(
      value
      & opt
          (enum
             Harness.Pipelines.
               [
                 ("cfg", None); ("standard", Some Standard); ("new", Some New);
               ])
          None
      & info [ "pipeline" ] ~doc:"Which code to execute.")
  in
  let run path args pipeline =
    let vals = values args in
    List.iter
      (fun f ->
        let f =
          match pipeline with
          | None -> f
          | Some route -> (compile_route route f).output
        in
        let o = interp_run f vals in
        Printf.printf "%s: returned %s; %d instructions, %d copies executed\n"
          f.Ir.name
          (match o.return_value with
          | Some v -> Ir.Printer.value_to_string v
          | None -> "(nothing)")
          o.stats.instrs_executed o.stats.copies_executed)
      (Frontend.Load.file path);
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a program and report dynamic statistics")
    Term.(const run $ path_arg $ args_arg $ pipeline)

let compare_cmd =
  let run path =
    let rows =
      List.map
        (fun f ->
          ( f.Ir.name,
            List.map
              (fun route -> Ir.count_copies (compile_route route f).output)
              Harness.Pipelines.all ))
        (Frontend.Load.file path)
    in
    Printf.printf "%-16s %10s %10s %10s %10s\n" "function" "standard" "new"
      "briggs" "briggs*";
    List.iter
      (fun (name, copies) ->
        Printf.printf "%-16s%s\n" name
          (String.concat "" (List.map (Printf.sprintf " %10d") copies)))
      rows;
    0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Static copy counts for all four pipelines")
    Term.(const run $ path_arg)

let alloc_cmd =
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Number of registers.") in
  let run path k args =
    let vals = values args in
    let pipeline =
      pipeline_of_spec
        (Printf.sprintf "construct:pruned,coalesce,regalloc:%d" k)
    in
    List.iter
      (fun f ->
        let r = Driver.Pipeline.compile_passes pipeline f in
        print_func ~stages:r.stages
          (Printf.sprintf "%s (allocated to at most %d registers)" f.Ir.name k)
          r.output;
        if vals <> [] then begin
          let before = interp_run f vals in
          let after = Interp.run ~args:vals r.output in
          (* The spill slab is Regalloc.spill_array, suffixed when the
             input already uses that name. *)
          let spill (name, _) =
            String.starts_with ~prefix:Regalloc.spill_array name
            && not (List.mem_assoc name before.arrays)
          in
          let same =
            before.return_value = after.return_value
            && List.filter (Fun.negate spill) after.arrays = before.arrays
          in
          Printf.printf "# semantics preserved: %b\n" same
        end)
      (Frontend.Load.file path);
    0
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:"Coalesce and then run the Chaitin/Briggs register allocator")
    Term.(const run $ path_arg $ k $ args_arg)

let opt_cmd =
  let passes =
    Arg.(
      value
      & opt (some string) None
      & info [ "passes" ]
          ~doc:
            "Run an explicit pass pipeline instead of the flag-derived one: \
             a comma-separated spec such as \
             $(b,construct:pruned,copy-prop,simplify,dce,coalesce). Conflicts \
             with --simplify/--dce/--via/--registers (exit 2): the spec \
             already determines the passes. An unknown pass name exits with \
             code 2 and lists the registered passes."
          ~docv:"SPEC")
  in
  let simplify = Arg.(value & flag & info [ "simplify" ] ~doc:"Run Ssa.Simplify.") in
  let dce = Arg.(value & flag & info [ "dce" ] ~doc:"Run Ssa.Dce.") in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "registers" ] ~doc:"Finish with a $(docv)-register allocation."
          ~docv:"K")
  in
  let conversion =
    Arg.(
      value
      & opt
          (enum
             [
               ("new", "coalesce");
               ("standard", "standard");
               ("briggs", "briggs");
               ("briggs-star", "briggs-star");
             ])
          "coalesce"
      & info [ "via" ] ~doc:"SSA-to-CFG conversion: new|standard|briggs|briggs-star.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Compile the file's functions in parallel on $(docv) domains \
             (engine batch mode; results are identical to sequential \
             compilation). 0 means one domain per core."
          ~docv:"N")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Translation-validate every compilation: execute input and \
             output on Check.equiv's argument battery and audit the \
             coalescer's congruence classes for interference.")
  in
  let run path passes simplify dce registers conversion jobs check =
    (* The flags spell a spec: construct:pruned[,simplify][,dce],<via>
       [,regalloc:K]. *)
    let spec =
      match passes with
      | Some spec -> spec
      | None ->
        String.concat ","
          (List.concat
             [
               [ "construct:pruned" ];
               (if simplify then [ "simplify" ] else []);
               (if dce then [ "dce" ] else []);
               [ conversion ];
               (match registers with
               | Some k -> [ Printf.sprintf "regalloc:%d" k ]
               | None -> []);
             ])
    in
    let pipeline = pipeline_of_spec spec in
    let funcs = Frontend.Load.file path in
    let reports =
      if jobs = 1 then
        List.map
          (fun f -> Driver.Pipeline.compile_passes ~check pipeline f)
          funcs
      else
        let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
        Driver.Pipeline.compile_batch_passes ~jobs ~check pipeline funcs
    in
    List.iter2
      (fun f (r : Driver.Pipeline.report) ->
        print_func ~stages:r.stages (f.Ir.name ^ " (optimized)") r.output;
        print_newline ())
      funcs reports;
    0
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Run the whole configurable backend pipeline")
    Term.(
      const run $ path_arg $ passes $ simplify $ dce $ k $ conversion $ jobs
      $ check)

let dot_cmd =
  let what =
    Arg.(
      value
      & opt (enum [ ("cfg", `Cfg); ("domtree", `Domtree) ]) `Cfg
      & info [ "graph" ] ~doc:"Which graph to emit: cfg or domtree.")
  in
  let ssa = Arg.(value & flag & info [ "ssa" ] ~doc:"Convert to SSA first.") in
  let run path what ssa =
    List.iter
      (fun f ->
        let f =
          if ssa then
            (List.hd (compile_route Harness.Pipelines.New f).stages).func
          else f
        in
        print_string
          (match what with
          | `Cfg -> Ir.Dot.cfg f
          | `Domtree -> Ir.Dot.dominator_tree f))
      (Frontend.Load.file path);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz for the CFG or the dominator tree")
    Term.(const run $ path_arg $ what $ ssa)

(* ------------------------------------------------------------------ *)
(* fuzz: differential fuzzing of every SSA-to-CFG route               *)
(* ------------------------------------------------------------------ *)

(* The four conversion routes of the paper's evaluation, cross-compared
   through the input program (equivalence to the input is transitive, so
   any route-vs-route discrepancy shows up as at least one route-vs-input
   mismatch). *)
let fuzz_routes = Harness.Obs_report.default_routes

type fuzz_failure = {
  seed : int;
  route : string;  (** a conversion route, ["audit"] or ["liveness"] *)
  detail : string;
}

(* Liveness differential, run on the raw CFG of a fuzzed program: dense
   bitset liveness must match the hash-table reference set-for-set. *)
let liveness_mismatch (ir : Ir.func) =
  let cfg = Ir.Cfg.of_func ir in
  let dense = Analysis.Liveness.compute ir cfg in
  let reference = Analysis.Liveness_ref.compute ir cfg in
  let live_mismatches = ref [] in
  for l = 0 to Ir.num_blocks ir - 1 do
    if Ir.Cfg.reachable cfg l then begin
      let dense_elems sel = Support.Bitset.elements (sel dense l) in
      let din = dense_elems Analysis.Liveness.live_in in
      let dout = dense_elems Analysis.Liveness.live_out in
      let rin = Analysis.Liveness_ref.live_in reference l in
      let rout = Analysis.Liveness_ref.live_out reference l in
      if din <> rin || dout <> rout then
        live_mismatches :=
          Printf.sprintf "b%d: dense in=[%s] out=[%s], ref in=[%s] out=[%s]" l
            (String.concat "," (List.map string_of_int din))
            (String.concat "," (List.map string_of_int dout))
            (String.concat "," (List.map string_of_int rin))
            (String.concat "," (List.map string_of_int rout))
          :: !live_mismatches
    end
  done;
  match !live_mismatches with
  | [] -> None
  | ms -> Some (String.concat "; " (List.rev ms))

(* The one classifier, for the fuzz run and the shrinker alike: what one
   route (a conversion, "audit" or "liveness") shows on a program, if
   anything. Any breakage counts — a semantic mismatch, an audit
   violation, a liveness mismatch, or an exception from any of them — so
   a crash is reported, never an escape that ends the run, and a shrink
   keeps what the run reported. *)
let fuzz_routes_checked = "liveness" :: "audit" :: List.map fst fuzz_routes

let fuzz_check ~vectors (ir : Ir.func) route =
  match
    match route with
    | "liveness" -> liveness_mismatch ir
    | "audit" -> (
      match Check.interference_audit (Ssa.Construct.run_exn ir) with
      | Ok () -> None
      | Error i -> Some (Format.asprintf "%a" Check.pp_interference i))
    | _ -> (
      let r =
        Driver.Pipeline.compile_passes (List.assoc route fuzz_routes) ir
      in
      match Check.equiv ~vectors ~reference:ir r.output with
      | Ok () -> None
      | Error m -> Some (Format.asprintf "%a" Check.pp_mismatch m))
  with
  | verdict -> verdict
  | exception e -> Some ("raised " ^ Printexc.to_string e)

let fuzz_keep ~route ~vectors (ast : Frontend.Ast.func) =
  match Frontend.Lower.lower ast with
  | exception _ -> false
  | ir, _ -> Option.is_some (fuzz_check ~vectors ir route)

let fuzz_seed ~size ~vectors seed : fuzz_failure list =
  let ast =
    Workloads.Generator.generate
      { Workloads.Generator.default with seed; size }
  in
  let ir, _ = Frontend.Lower.lower ast in
  List.filter_map
    (fun route ->
      Option.map
        (fun detail -> { seed; route; detail })
        (fuzz_check ~vectors ir route))
    fuzz_routes_checked

let fuzz_cmd =
  let seeds =
    Arg.(
      value & opt int 50
      & info [ "seeds" ] ~doc:"Number of random programs to generate."
          ~docv:"N")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Fan seeds out over $(docv) engine domains (0 = one per core)."
          ~docv:"J")
  in
  let size =
    Arg.(
      value & opt int 40
      & info [ "size" ] ~doc:"Rough statement count of each program.")
  in
  let vectors =
    Arg.(
      value & opt int 8
      & info [ "vectors" ] ~doc:"Argument vectors per equivalence check.")
  in
  let run seeds jobs size vectors =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let results =
      Engine.Pool.with_pool ~jobs (fun pool ->
          Engine.Pool.map_array pool
            (fuzz_seed ~size ~vectors)
            (Array.init seeds (fun i -> i + 1)))
    in
    let failures = List.concat (Array.to_list results) in
    match failures with
    | [] ->
      Printf.printf
        "fuzz: %d seeds x %d routes (+ interference audit and \
         liveness differential): no discrepancies\n"
        seeds
        (List.length fuzz_routes);
      0
    | first :: _ ->
      List.iter
        (fun f ->
          Printf.eprintf "fuzz: seed %d, route %s:\n%s\n" f.seed f.route
            f.detail)
        failures;
      (* Shrink the first failure into a minimal standalone repro. *)
      let ast =
        Workloads.Generator.generate
          { Workloads.Generator.default with seed = first.seed; size }
      in
      let shrunk =
        Check.shrink ~keep:(fuzz_keep ~route:first.route ~vectors) ast
      in
      Printf.eprintf
        "fuzz: %d failure(s); minimal repro for seed %d route %s (%d \
         statements):\n%s"
        (List.length failures) first.seed first.route
        (Frontend.Ast.count_stmts shrunk)
        (Frontend.Ast.func_to_source shrunk);
      1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random programs through every SSA-to-CFG \
          route, outputs executed and cross-compared, congruence classes \
          audited; failures are shrunk to a minimal repro")
    Term.(const run $ seeds $ jobs $ size $ vectors)

(* ------------------------------------------------------------------ *)
(* report: the Obs counter/timing vectors for all four routes          *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Program to report on (mini-language, or .ir). Defaults to the \
             built-in workload kernel suite.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the repro-obs/1 JSON document instead of tables.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Compile on $(docv) engine domains (0 = one per core)."
          ~docv:"N")
  in
  let run path json jobs =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let funcs =
      match path with
      | Some p -> Frontend.Load.file p
      | None ->
        List.map
          (fun (e : Workloads.Suite.entry) -> e.func)
          (Workloads.Suite.kernels ())
    in
    let report = Harness.Obs_report.collect ~jobs funcs in
    if json then print_string (Obs.report_to_json ~spans:true report)
    else Harness.Obs_report.print report;
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Operation counters and phase times for every SSA-to-CFG \
          conversion route (the paper's Tables 1-5 vectors)")
    Term.(const run $ path $ json $ jobs)

(* ------------------------------------------------------------------ *)
(* serve: persistent compile service (stdin, TCP, unix socket)         *)
(* ------------------------------------------------------------------ *)

(* The request grammar, response taxonomy and every diagnostic string
   live in Serve.Protocol, shared between this front end and the
   concurrent Serve.Server. Default transport is the historical one —
   one request per stdin line, one response per stdout line, per-request
   latency on stderr so scripted sessions diff stdout deterministically.
   --tcp PORT / --socket PATH instead run the concurrent server on that
   address and keep serving until stdin reports EOF (or a lone "stop"
   line), then drain gracefully. *)

let serve_stdin ~jobs ~cache =
  Engine.Pool.with_pool ~jobs (fun pool ->
      let n = ref 0 in
      let compile = Serve.Protocol.batch_compile ~pool ~cache in
      let stats () =
        let s =
          match cache with Some c -> Cache.stats c | None -> Cache.zero_stats
        in
        Printf.sprintf
          "stats served=%d hits=%d misses=%d evictions=%d dedup=%d \
           contention=%d"
          !n s.Cache.hits s.Cache.misses s.Cache.evictions
          s.Cache.dedup_collapsed s.Cache.contention
      in
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line -> (
          let t0 = Obs.now_s () in
          match Serve.Protocol.respond ~compile ~stats line with
          | Serve.Protocol.No_reply -> loop ()
          | Serve.Protocol.Reply s ->
            incr n;
            print_string s;
            print_newline ();
            flush stdout;
            Printf.eprintf "# request %d: %.2f ms\n%!" !n
              ((Obs.now_s () -. t0) *. 1000.);
            loop ()
          | Serve.Protocol.Bye s ->
            print_string s;
            print_newline ();
            flush stdout)
      in
      loop ();
      Option.iter
        (fun c ->
          let s = Cache.stats c in
          Printf.eprintf
            "# served %d request(s); cache hits=%d misses=%d evictions=%d \
             disk_evictions=%d dedup=%d bytes=%d\n%!"
            !n s.Cache.hits s.Cache.misses s.Cache.evictions
            s.Cache.disk_evictions s.Cache.dedup_collapsed s.Cache.bytes_stored)
        cache);
  0

let serve_socket ~config listen =
  let server = Serve.Server.start ~config listen in
  Printf.printf "listening %s\n%!" (Serve.Server.address server);
  (* Foreground until stdin closes or says stop; then drain gracefully. *)
  let rec wait () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some l when String.trim l = "stop" || String.trim l = "quit" -> ()
    | Some _ -> wait ()
  in
  wait ();
  Serve.Server.stop server;
  let c = Serve.Server.counters server in
  let s = match config.Serve.Server.cache with
    | Some cache -> Cache.stats cache
    | None -> Cache.zero_stats
  in
  Printf.eprintf
    "# accepted=%d refused=%d served=%d shed=%d; cache hits=%d misses=%d \
     dedup=%d contention=%d disk_evictions=%d; %s\n%!"
    c.Serve.Server.accepted c.Serve.Server.refused c.Serve.Server.served
    c.Serve.Server.shed s.Cache.hits s.Cache.misses s.Cache.dedup_collapsed
    s.Cache.contention s.Cache.disk_evictions
    (Serve.Server.residence_fields server);
  0

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:
            "Keep a warm engine pool of $(docv) domains across requests \
             (0 = one per core)."
          ~docv:"N")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the content-addressed result cache.")
  in
  let capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ]
          ~doc:"In-memory cache entries to keep (LRU)." ~docv:"N")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:
            "Also persist cache entries under $(docv) so results survive \
             across serve sessions."
          ~docv:"DIR")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ]
          ~doc:
            "Serve many concurrent clients over TCP on 127.0.0.1:$(docv) \
             (0 = ephemeral; the bound address is printed on stdout)."
          ~docv:"PORT")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~doc:"Serve many concurrent clients on a unix-domain socket at \
                $(docv)."
          ~docv:"PATH")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ]
          ~doc:
            "Bound on globally pending requests; beyond it requests are \
             shed with err status=busy (socket modes)."
          ~docv:"N")
  in
  let per_conn =
    Arg.(
      value & opt int 8
      & info [ "per-conn" ]
          ~doc:"In-flight request limit per connection (socket modes)."
          ~docv:"N")
  in
  let max_conns =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ]
          ~doc:"Simultaneous-connection limit (socket modes)." ~docv:"N")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "cache-shards" ]
          ~doc:
            "LRU lock shards for the shared cache under concurrency \
             (socket modes; the stdin loop always uses one)."
          ~docv:"N")
  in
  let run jobs no_cache capacity cache_dir tcp socket queue per_conn max_conns
      shards =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let make_cache ~shards =
      if no_cache then None
      else Some (Cache.create ~capacity ?dir:cache_dir ~shards ())
    in
    match (tcp, socket) with
    | Some _, Some _ ->
      raise (Input_error "serve: --tcp and --socket are mutually exclusive")
    | None, None -> serve_stdin ~jobs ~cache:(make_cache ~shards:1)
    | _ ->
      let config =
        {
          Serve.Server.jobs;
          queue_capacity = queue;
          per_conn;
          max_conns;
          cache = make_cache ~shards;
        }
      in
      let listen =
        match (tcp, socket) with
        | Some port, None -> Serve.Server.Tcp ("", port)
        | None, Some path -> Serve.Server.Unix_path path
        | _ -> assert false
      in
      serve_socket ~config listen
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent compile service: one request per line, one response \
          per line, reusing a warm engine pool and the result cache across \
          requests — over stdin/stdout by default, or concurrently over \
          TCP/unix sockets with --tcp/--socket")
    Term.(
      const run $ jobs $ no_cache $ capacity $ cache_dir $ tcp $ socket
      $ queue $ per_conn $ max_conns $ shards)

(* ------------------------------------------------------------------ *)
(* loadgen: drive a running socket server                              *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~doc:"TCP port of the server to drive." ~docv:"PORT")
  in
  let host =
    Arg.(
      value & opt string ""
      & info [ "host" ] ~doc:"Numeric server address (default loopback)."
          ~docv:"ADDR")
  in
  let clients =
    Arg.(
      value & opt int 50
      & info [ "clients" ] ~doc:"Concurrent client connections." ~docv:"N")
  in
  let requests =
    Arg.(
      value & opt int 20
      & info [ "requests" ] ~doc:"Requests per client, sent back-to-back."
          ~docv:"N")
  in
  let distinct =
    Arg.(
      value & opt int 16
      & info [ "distinct" ]
          ~doc:
            "Distinct programs in the corpus; smaller = more identical \
             requests in flight at once (dedup pressure)."
          ~docv:"N")
  in
  let run port host clients requests distinct =
    let r =
      Serve.Loadgen.run ~host ~port ~clients ~requests_per_client:requests
        ~distinct ()
    in
    Format.printf "%a@." Serve.Loadgen.pp r;
    if r.Serve.Loadgen.errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Closed-loop load generator for a serve socket server: concurrent \
          clients, tagged pipelined requests, latency percentiles and the \
          server's own final counters")
    Term.(const run $ port $ host $ clients $ requests $ distinct)

(* ------------------------------------------------------------------ *)
(* corpus: generate and stream-compile large on-disk corpora           *)
(* ------------------------------------------------------------------ *)

(* The corpus subcommands exist to exercise the scale story: corpora of
   10⁵–10⁶ functions streaming through the Domain pool with bounded
   memory. Everything is deterministic in (seed, total, mix); the
   manifest sitting next to a corpus file is enough to regenerate it. *)

let parse_mix s =
  match
    Scanf.sscanf s "%d,%d,%d,%d" (fun kernels generated adversarial near_dups ->
        { Workloads.Corpus.kernels; generated; adversarial; near_dups })
  with
  | m when Workloads.Corpus.(m.kernels + m.generated + m.adversarial
                             + m.near_dups) > 0 -> m
  | _ -> raise (Input_error ("corpus: mix weights must sum > 0: " ^ s))
  | exception _ ->
    raise
      (Input_error
         ("corpus: bad --mix (want KERNELS,GENERATED,ADVERSARIAL,NEAR_DUPS \
           e.g. 2,5,1,2): " ^ s))

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~doc:"Corpus derivation seed." ~docv:"N")

let total_arg default =
  Arg.(
    value & opt int default
    & info [ "total" ] ~doc:"Number of functions in the corpus." ~docv:"N")

let mix_arg =
  Arg.(
    value & opt string "2,5,1,2"
    & info [ "mix" ]
        ~doc:
          "Family weights $(docv): kernels (repeated verbatim — the \
           warm-cache component), seeded generated programs, adversarial \
           CFG shapes, and cache-hostile near-duplicates."
        ~docv:"K,G,A,D")

let corpus_gen_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Corpus file to write." ~docv:"PATH")
  in
  let run out total seed mix =
    let spec =
      { Workloads.Corpus.seed; total; mix = parse_mix mix }
    in
    let count, dt = Harness.Measure.wall (fun () ->
        Workloads.Corpus.write out spec)
    in
    Printf.printf "wrote %s: %d function(s) in %.2f s (%.0f funcs/s)\n" out
      count dt (float_of_int count /. Float.max dt 1e-9);
    Printf.printf "manifest %s\n" (Workloads.Corpus.manifest_path out);
    List.iter
      (fun (name, n) -> Printf.printf "  %s %d\n" name n)
      (Workloads.Corpus.family_counts spec);
    0
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a deterministic corpus to a line-delimited file plus a \
          reproducibility manifest")
    Term.(const run $ out $ total_arg 2000 $ seed_arg $ mix_arg)

let corpus_info_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Also stream-parse every function in the file and check the \
             count against the manifest.")
  in
  let run path deep =
    match Workloads.Corpus.read_manifest path with
    | None ->
      raise
        (Input_error
           (Workloads.Corpus.manifest_path path
           ^ ": missing or malformed manifest"))
    | Some m ->
      let spec = m.Workloads.Corpus.spec in
      Printf.printf "corpus %s\n" path;
      Printf.printf "  seed %d\n  total %d\n  count %d\n"
        spec.Workloads.Corpus.seed spec.Workloads.Corpus.total
        m.Workloads.Corpus.count;
      Printf.printf "  mix kernels=%d generated=%d adversarial=%d \
                     near_dups=%d\n"
        spec.Workloads.Corpus.mix.Workloads.Corpus.kernels
        spec.Workloads.Corpus.mix.Workloads.Corpus.generated
        spec.Workloads.Corpus.mix.Workloads.Corpus.adversarial
        spec.Workloads.Corpus.mix.Workloads.Corpus.near_dups;
      List.iter
        (fun (name, n) -> Printf.printf "  family %s %d\n" name n)
        (Workloads.Corpus.family_counts spec);
      if deep then begin
        let next = read_corpus path in
        let n = ref 0 in
        let rec loop () =
          match next () with
          | Some _ ->
            incr n;
            loop ()
          | None -> ()
        in
        loop ();
        Printf.printf "  parsed %d function(s)\n" !n;
        if !n <> m.Workloads.Corpus.count then
          raise
            (Input_error
               (Printf.sprintf
                  "%s: file holds %d function(s) but manifest says %d" path
                  !n m.Workloads.Corpus.count))
      end;
      0
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Show (and optionally verify) a corpus file's manifest")
    Term.(const run $ path $ deep)

let corpus_compile_cmd =
  let input =
    Arg.(
      value
      & opt (some file) None
      & info [ "in"; "i" ]
          ~doc:
            "Stream functions from corpus file $(docv) instead of \
             generating them on the fly."
          ~docv:"PATH")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ]
          ~doc:"Engine pool size (0 = one domain per core)." ~docv:"N")
  in
  let window =
    Arg.(
      value & opt int Engine.Stream.default_window
      & info [ "window" ]
          ~doc:"Reorder-window bound of the streaming core." ~docv:"N")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Translation-validate every compilation.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ]
          ~doc:"Compile through a content-addressed cache persisted under \
                $(docv)."
          ~docv:"DIR")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ]
          ~doc:"In-memory cache entries to keep (LRU)." ~docv:"N")
  in
  let disk_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-capacity" ]
          ~doc:
            "Cap the disk tier at $(docv) entries (oldest-mtime eviction)."
          ~docv:"N")
  in
  let run input total seed mix jobs window check cache_dir cache_capacity
      disk_capacity =
    let jobs = if jobs = 0 then Engine.default_jobs () else jobs in
    let cache =
      match cache_dir with
      | None -> None
      | Some dir ->
        Some
          (Cache.create ~capacity:cache_capacity ~dir ~shards:8
             ?disk_capacity ())
    in
    let producer () =
      match input with
      | Some path -> read_corpus path
      | None ->
        Workloads.Corpus.producer
          { Workloads.Corpus.seed; total; mix = parse_mix mix }
    in
    let pipeline = Pass.Spec.parse_exn "construct:pruned,coalesce" in
    let watch = Harness.Measure.heap_watch () in
    let compiled = ref 0 in
    let (), dt =
      Harness.Measure.wall (fun () ->
          Engine.Pool.with_pool ~jobs (fun pool ->
              Driver.Pipeline.stream_passes_in pool ~check ~window ?cache
                ~producer:(producer ())
                ~consumer:(fun _ _ ->
                  incr compiled;
                  Harness.Measure.heap_sample watch)
                pipeline))
    in
    let peak = Harness.Measure.heap_peak_words watch in
    Printf.printf
      "compiled %d function(s) in %.2f s: %.0f funcs/s (%.0f per core, \
       jobs=%d, streaming window=%d)\n"
      !compiled dt
      (float_of_int !compiled /. Float.max dt 1e-9)
      (float_of_int !compiled /. Float.max dt 1e-9 /. float_of_int jobs)
      jobs window;
    Printf.printf "peak heap %d words (baseline %d)\n" peak
      (peak - Harness.Measure.heap_growth_words watch);
    Option.iter
      (fun c ->
        let s = Cache.stats c in
        Printf.printf
          "cache hits=%d misses=%d evictions=%d disk_evictions=%d dedup=%d\n"
          s.Cache.hits s.Cache.misses s.Cache.evictions s.Cache.disk_evictions
          s.Cache.dedup_collapsed)
      cache;
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Stream-compile a corpus (from a file or generated on the fly) \
          through the engine pool with bounded memory, reporting \
          throughput, peak heap words, and cache stats")
    Term.(
      const run $ input $ total_arg 10_000 $ seed_arg $ mix_arg $ jobs
      $ window $ check $ cache_dir $ cache_capacity $ disk_capacity)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Million-function corpora: deterministic generation to disk and \
          streaming batch compilation with bounded memory")
    [ corpus_gen_cmd; corpus_compile_cmd; corpus_info_cmd ]

let subcommands =
  [
    dump_cmd; run_cmd; compare_cmd; alloc_cmd; opt_cmd; dot_cmd; fuzz_cmd;
    report_cmd; serve_cmd; loadgen_cmd; corpus_cmd;
  ]

(* An unknown subcommand is an input error like any other: exit 2 with a
   "did you mean" hint, not cmdliner's generic usage error (124). *)
let check_subcommand () =
  match Array.to_list Sys.argv with
  | _ :: name :: _
    when String.length name > 0
         && name.[0] <> '-'
         && not (List.exists (fun c -> Cmd.name c = name) subcommands) ->
    let names = List.map Cmd.name subcommands in
    let hint =
      match Pass.Registry.suggest name ~candidates:names with
      | Some c -> Printf.sprintf " — did you mean '%s'?" c
      | None -> ""
    in
    raise
      (Input_error
         (Printf.sprintf "unknown command '%s'%s (commands: %s)" name hint
            (String.concat ", " names)))
  | _ -> ()

(* cmdliner resolves a repeated option by last-wins, which for a compiler
   driver silently discards half of what the user asked for. Repeated
   options, and option combinations where one side would be ignored, are
   input errors (exit 2). The scan normalizes --opt=value to --opt, folds
   the -j alias onto --jobs, skips negative-number values, and stops at a
   bare "--". *)
let check_flag_conflicts () =
  let canonical tok =
    let base =
      match String.index_opt tok '=' with
      | Some i -> String.sub tok 0 i
      | None -> tok
    in
    if base = "-j" then "--jobs" else base
  in
  let is_option tok =
    String.length tok > 1
    && tok.[0] = '-'
    && tok <> "--"
    && not (tok.[1] >= '0' && tok.[1] <= '9')
  in
  let rec scan seen = function
    | [] -> seen
    | "--" :: _ -> seen
    | tok :: rest when is_option tok ->
      let name = canonical tok in
      if List.mem name seen then
        raise
          (Input_error
             (Printf.sprintf "option '%s' given more than once" name));
      scan (name :: seen) rest
    | _ :: rest -> scan seen rest
  in
  let seen = scan [] (List.tl (Array.to_list Sys.argv)) in
  if List.mem "--passes" seen then
    List.iter
      (fun flag ->
        if List.mem flag seen then
          raise
            (Input_error
               (Printf.sprintf
                  "option '--passes' conflicts with '%s': the pipeline spec \
                   already determines the passes" flag)))
      [ "--via"; "--simplify"; "--dce"; "--registers" ]

let () =
  let doc = "fast copy coalescing and live-range identification (PLDI 2002)" in
  let code =
    try
      check_subcommand ();
      check_flag_conflicts ();
      Cmd.eval' ~catch:false
        (Cmd.group (Cmd.info "repro-cli" ~doc) subcommands)
    with
    | Input_error msg | Frontend.Load.Error msg ->
      Printf.eprintf "repro-cli: %s\n" msg;
      exit_parse_error
    | Ir.Validate.Invalid msg ->
      Printf.eprintf "repro-cli: invalid input: %s\n" msg;
      exit_parse_error
    | Interp.Error e ->
      Printf.eprintf "repro-cli: runtime fault: %s\n"
        (Format.asprintf "%a" Interp.pp_error e);
      exit_runtime_fault
    | Check.Failed msg ->
      Printf.eprintf "repro-cli: %s\n" msg;
      exit_runtime_fault
    | e ->
      Printf.eprintf "repro-cli: internal error: %s\n" (Printexc.to_string e);
      exit_internal_error
  in
  exit code
