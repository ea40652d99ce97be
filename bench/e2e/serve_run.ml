(* serve-open: service traffic. An in-process Serve.Server on TCP loopback
   (the same server [repro-cli serve --tcp] runs) receives tagged
   [inline] requests from a single-thread open-loop generator over two
   connections, at seeded exponential inter-arrival times and a fixed
   mean [rate] for the whole measured window. Every request is timed
   from when it was due, not when it was sent, so a stall shows in the
   latency of every request queued behind it.

   The generator is a process of its own ([main.exe serve-client], see
   [client_main]), so the server's stop-the-world minor collections do
   not stop it, and it runs on a core of its own (see [pin]). A run in
   which it still sent more than [lag_limit] late at the 99th percentile
   is marked invalid. The server runs one compile worker ([jobs] = 1): its
   pool then spawns no domain, the worker and the I/O threads share the
   server's domain, and with the generator the workload keeps two cores
   busy, as many as the machine the bounds were set on has.

   Most of the latency is not compile time: a request costs the server
   about 1 ms of compiling, yet on the machine the bounds were set on the
   median was 8.7 ms at 200 req/s and 6.9 ms at 300, and at 100 req/s it
   swung from 2.3 to 7.2 ms between runs with a 99th percentile of 42 ms:
   it is spent waiting in the server's process, most likely for its
   threads' turns on its one domain, and how long depends on how often
   they block. [rate] is 200 req/s: there both percentiles repeated
   within 6% (quartile spread over ten seeds), and the server used 0.3
   of its core, so the shared host can run it at half speed for a while
   without a backlog building.

   Half the requests name one of 16 hot programs (cache hits once warm),
   half are fresh programs that miss: one of 96 base programs under a
   name never used before. Hit and miss latencies are also printed
   apart. The programs are the same for every seed, and the seed draws
   the arrival times and the request sequence, so a run's cost does not
   hinge on which programs one seed happened to generate. *)

let jobs = 1
let hot_count = 16
let base_count = 96
let hot_share = 0.5
let rate = 200.
let cache_capacity = 512
let lag_limit = 1e-3

(* A request is a failure only when the server answers it wrongly or
   never. So the admission limits hold every request a run can send
   (rate × (window + drain) is 12 000 for a 30 s window), and a
   stall of the host, which on a shared machine can last seconds, delays
   replies instead of shedding them as busy; after the window the
   generator waits up to [drain_timeout] for the backlog to clear. *)
let admission_limit = 1 lsl 15
let drain_timeout = 30.

let hot_texts () = Array.of_list (Inputs.serve_programs ~salt:3 hot_count)
let base_texts () = Array.of_list (Inputs.serve_programs ~salt:4 base_count)

(* One client connection: a socket and the partial line read so far. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t }

let chunk = Bytes.create 65536

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Read what is available on [c] and hand each complete line to [f]. *)
let read_lines c f =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "server closed the connection";
  let start = ref 0 in
  for i = 0 to k - 1 do
    if Bytes.get chunk i = '\n' then begin
      Buffer.add_subbytes c.pending chunk !start (i - !start);
      f (Buffer.contents c.pending);
      Buffer.clear c.pending;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.pending chunk !start (k - !start)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; pending = Buffer.create 256 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The generator process                                               *)
(* ------------------------------------------------------------------ *)

type req = {
  id : int;
  hot : bool;
  prog : int;  (* index into the hot or the base programs *)
  due : float;  (* scheduled send time *)
  mutable sent : float;
  mutable replied : float;  (* nan until answered *)
  mutable reply : string;
}

type gen = {
  conns : conn array;
  hot_set : string array;
  bases : string array;
  rng : Random.State.t;
  reqs : (int, req) Hashtbl.t;
  mutable next_id : int;
  mutable fresh : int;
  mutable outstanding : int;
  mutable in_flight_max : int;
}

let issue g ~conn ~due =
  let hot = Random.State.float g.rng 1. < hot_share in
  let prog, text =
    if hot then
      let k = Random.State.int g.rng hot_count in
      (k, g.hot_set.(k))
    else begin
      let k = Random.State.int g.rng base_count in
      g.fresh <- g.fresh + 1;
      (k, Inputs.rename g.bases.(k) g.fresh)
    end
  in
  let id = g.next_id in
  g.next_id <- id + 1;
  let r = { id; hot; prog; due; sent = nan; replied = nan; reply = "" } in
  Hashtbl.replace g.reqs id r;
  let line = Printf.sprintf "inline --tag q%d %s\n" id text in
  r.sent <- Report.now ();
  write_all g.conns.(conn).fd line;
  g.outstanding <- g.outstanding + 1;
  g.in_flight_max <- max g.in_flight_max g.outstanding

let tag_of line =
  match String.index_opt line '=' with
  | Some i when i >= 4 && String.sub line (i - 3) 3 = "tag" && i + 1 < String.length line
                && line.[i + 1] = 'q' ->
    let j = try String.index_from line i ' ' with Not_found -> String.length line in
    int_of_string_opt (String.sub line (i + 2) (j - i - 2))
  | _ -> None

(* Wait up to [timeout] seconds for replies and record them. *)
let poll g timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.conns) in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
    let t = Report.now () in
    Array.iter
      (fun c ->
        if List.mem c.fd ready then
          read_lines c (fun line ->
              match Option.bind (tag_of line) (Hashtbl.find_opt g.reqs) with
              | Some r when Float.is_nan r.replied ->
                r.replied <- t;
                r.reply <- line;
                g.outstanding <- g.outstanding - 1
              | _ -> ()))
      g.conns

let exponential rng rate = -.log (1. -. Random.State.float rng 1.) /. rate

(* Send at [rate] for [duration] seconds, alternating connections, then
   wait for the replies still outstanding. *)
let open_loop g ~duration =
  let start = Report.now () in
  let stop = start +. duration in
  let due = ref (start +. exponential g.rng rate) in
  let conn = ref 0 in
  while !due < stop do
    while !due < stop && !due <= Report.now () do
      issue g ~conn:!conn ~due:!due;
      conn := 1 - !conn;
      due := !due +. exponential g.rng rate
    done;
    poll g (Float.max 0. (Float.min !due stop -. Report.now ()))
  done;
  while g.outstanding > 0 && Report.now () < stop +. drain_timeout do
    poll g 0.05
  done;
  (start, stop)

(* [main.exe serve-client PORT SEED SECONDS]: run the open loop against
   the server on PORT and print, on standard output, the window and the
   most requests in flight, then one line per request. Times are readings
   of the monotonic clock, which both processes share, in hexadecimal so
   they round-trip exactly. *)
let client_main = function
  | [ port; seed; seconds ] ->
    let port = int_of_string port and seed = int_of_string seed in
    let g =
      {
        conns = [| connect port; connect port |];
        hot_set = hot_texts ();
        bases = base_texts ();
        rng = Inputs.rng seed 5;
        reqs = Hashtbl.create 16384;
        next_id = 0;
        fresh = 0;
        outstanding = 0;
        in_flight_max = 0;
      }
    in
    let start, stop = open_loop g ~duration:(float_of_string seconds) in
    Array.iter close_conn g.conns;
    Printf.printf "window %h %h %d\n" start stop g.in_flight_max;
    Hashtbl.iter
      (fun _ r ->
        Printf.printf "%d %b %d %h %h %h %s\n" r.id r.hot r.prog r.due r.sent r.replied r.reply)
      g.reqs
  | _ ->
    prerr_endline "usage: main.exe serve-client PORT SEED SECONDS";
    exit 2

(* ------------------------------------------------------------------ *)
(* One core for the generator                                          *)
(* ------------------------------------------------------------------ *)

(* The server's domain runs OCaml on one core at a time, but its I/O
   threads' system calls run beside it, and unpinned they took turns on
   the generator's core: on the 2-vCPU guest the bounds were set on the
   generator then ran 3 ms late at p99, and 0.26 ms late once the server
   was pinned to one core and the generator to the other. So the server's
   process keeps every allowed CPU but the last, the generator gets the
   last, both through taskset(1). Where taskset is missing or fails, the
   run goes on unpinned and says so. *)

(* The CPUs this process may run on, as "0-3,6" in /proc/self/status. *)
let allowed_cpus () =
  let field = "Cpus_allowed_list:" in
  let n = String.length field in
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun l ->
           if String.length l > n && String.sub l 0 n = field then
             Some (String.trim (String.sub l n (String.length l - n)))
           else None)
  with Sys_error _ -> None

let expand_cpus list =
  List.concat_map
    (fun part ->
      match String.split_on_char '-' part with
      | [ a ] -> [ int_of_string a ]
      | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
      | _ -> failwith ("bad CPU list: " ^ list))
    (String.split_on_char ',' list)

(* Run taskset with [args]; true when it succeeded. *)
let taskset args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  match Unix.create_process "taskset" (Array.of_list ("taskset" :: args)) Unix.stdin null null with
  | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  | exception Unix.Unix_error _ -> false

type pinning = { original : string; generator : string }

(* Pin this process's threads to all allowed CPUs but the last, and
   return what [release_pin] and the generator need; [Error] says why
   not. *)
let pin () =
  let self = string_of_int (Unix.getpid ()) in
  match allowed_cpus () with
  | None -> Error "no CPU list in /proc/self/status"
  | Some original -> (
    match List.rev (expand_cpus original) with
    | generator :: (_ :: _ as rest) ->
      let server = String.concat "," (List.rev_map string_of_int rest) in
      if taskset [ "-a"; "-p"; "-c"; server; self ] then
        Ok ({ original; generator = string_of_int generator }, server)
      else Error "taskset failed"
    | _ -> Error "fewer than two CPUs allowed")

let release_pin p = ignore (taskset [ "-a"; "-p"; "-c"; p.original; string_of_int (Unix.getpid ()) ])

(* Start the generator process, on [cpu] when given, and read back what
   it printed. *)
let run_client ~cpu ~port ~seed ~seconds =
  let exe = Sys.executable_name in
  let argv =
    [ exe; "serve-client"; string_of_int port; string_of_int seed; Printf.sprintf "%h" seconds ]
  in
  let argv = match cpu with Some c -> "taskset" :: "-c" :: c :: argv | None -> argv in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out_w) @@ fun () ->
    Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin out_w Unix.stderr
  in
  let out = Unix.in_channel_of_descr out_r in
  let reaped = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr out;
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  let lines = In_channel.input_lines out in
  let _, status = Unix.waitpid [] pid in
  reaped := true;
  if status <> Unix.WEXITED 0 then failwith "serve-open: the generator process failed";
  match lines with
  | window :: reqs ->
    let start, stop, in_flight_max =
      Scanf.sscanf window "window %h %h %d" (fun a b c -> (a, b, c))
    in
    let req line =
      match String.split_on_char ' ' line with
      | id :: hot :: prog :: due :: sent :: replied :: reply ->
        {
          id = int_of_string id;
          hot = bool_of_string hot;
          prog = int_of_string prog;
          due = float_of_string due;
          sent = float_of_string sent;
          replied = float_of_string replied;
          reply = String.concat " " reply;
        }
      | _ -> failwith ("serve-open: bad generator line: " ^ line)
    in
    (start, stop, in_flight_max, List.map req reqs)
  | [] -> failwith "serve-open: the generator printed nothing"

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

type program = { text : string; copies : int }

let front text =
  match Serve.Protocol.parse_inline text with
  | [ f ] -> f
  | _ -> failwith "serve program: expected one function"

let program text =
  {
    text;
    copies =
      Ir.count_copies (Driver.Pipeline.compile_passes Report.default_pipeline (front text)).output;
  }

type setup = {
  server : Serve.Server.t;
  cache : Cache.t;
  hot : program array;
  bases : program array;
}

(* Send one request and wait for its reply — set-up only. *)
let roundtrip c line =
  write_all c.fd (line ^ "\n");
  let reply = ref None in
  while !reply = None do
    read_lines c (fun l -> reply := Some l)
  done;
  Option.get !reply

let setup () =
  let hot = Array.map program (hot_texts ()) in
  let bases = Array.map program (base_texts ()) in
  let cache = Cache.create ~capacity:cache_capacity ~shards:8 () in
  let server =
    Serve.Server.start
      ~config:
        {
          Serve.Server.jobs;
          queue_capacity = admission_limit;
          per_conn = admission_limit;
          max_conns = 16;
          cache = Some cache;
        }
      (Serve.Server.Tcp ("", 0))
  in
  let port = Serve.Server.port server in
  let conns = [| connect port; connect port |] in
  (* Warm the hot set into the cache, and fill the cache to capacity with
     names the measured window never uses, so the heap and the LRU are in
     their steady state before timing starts. *)
  Array.iteri (fun i p -> ignore (roundtrip conns.(i mod 2) ("inline " ^ p.text))) hot;
  for i = 0 to cache_capacity - 1 do
    let p = bases.(i mod base_count) in
    ignore (roundtrip conns.(i mod 2) ("inline " ^ Inputs.rename p.text (1_000_000 + i)))
  done;
  Array.iter close_conn conns;
  { server; cache; hot; bases }

let release s = Serve.Server.stop s.server

(* copies=N out of an ok reply. *)
let copies_of reply =
  List.find_map
    (fun w ->
      if String.length w > 7 && String.sub w 0 7 = "copies=" then
        int_of_string_opt (String.sub w 7 (String.length w - 7))
      else None)
    (String.split_on_char ' ' reply)

let run ~seed ~seconds ~trace ~setups ~spans =
  let pinned = pin () in
  Fun.protect ~finally:(fun () -> Result.iter (fun (p, _) -> release_pin p) pinned) @@ fun () ->
  let s, setup, wall_setup = Report.repeat_setup ~times:setups ~release setup in
  Fun.protect ~finally:(fun () -> release s) @@ fun () ->
  let measured = if trace then seconds /. 2. else seconds in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Report.now () in
  let start, stop, in_flight_max, reqs =
    run_client
      ~cpu:(match pinned with Ok (p, _) -> Some p.generator | Error _ -> None)
      ~port:(Serve.Server.port s.server) ~seed ~seconds:measured
  in
  let elapsed = Report.now () -. t0 in
  let total = List.length reqs in
  let words = ((Gc.quick_stat ()).Gc.minor_words -. w0) /. float total in
  let peak = Report.peak_heap_mb () in
  let c = Report.checks () in
  (* (due, latency) of every request; an unanswered one never arrives. *)
  let lat = ref [] and hit = ref [] and miss = ref [] and lag = ref [] in
  let served = ref 0 and busy = ref 0 and errors = ref 0 in
  List.iter
    (fun r ->
      let answered = not (Float.is_nan r.replied) in
      let l = if answered then r.replied -. r.due else infinity in
      lat := (r.due, l) :: !lat;
      if r.hot then hit := l :: !hit else miss := l :: !miss;
      lag := (r.sent -. r.due) :: !lag;
      if answered && r.replied < stop then incr served;
      let ok = answered && String.length r.reply > 3 && String.sub r.reply 0 3 = "ok " in
      if answered && not ok then
        if List.mem "status=busy" (String.split_on_char ' ' r.reply) then incr busy
        else incr errors;
      let expect = (if r.hot then s.hot else s.bases).(r.prog).copies in
      Report.check c
        (Printf.sprintf "request q%d: %s" r.id (if answered then r.reply else "no reply"))
        (ok && copies_of r.reply = Some expect))
    reqs;
  let scratch = Support.Scratch.domain () in
  let paper =
    List.filter (fun (it : Inputs.item) -> it.paper) (Array.to_list (Inputs.suite ~seed))
  in
  let static, dynamic, spills, _ = Report.quality c ~scratch [ Report.default_pipeline ] paper in
  (* Latency percentiles are the median over one-second windows of each
     window's percentile, like the other workloads' blocks. The served
     rate is replies over the window: it falls only when the server stops
     keeping up with [rate]. Neither is scaled to nominal speed: latency
     here is mostly waiting rather than computing, and by the wall clock
     it repeated within 5% between sets in which the suites' compile
     times moved by a third. *)
  let blocks =
    Report.time_blocks ~count:(max 1 (int_of_float (stop -. start))) ~t0:start ~t1:stop !lat
  in
  let e2e =
    (setup
    :: Report.timing_metrics ~n:total ~items_per_s:(float !served /. (stop -. start)) blocks)
    @ [
        Report.metric ~n:total "alloc_words_per_item" words "words";
        Report.metric "peak_heap_mb" peak "MB";
        Report.metric "static_copies" static "count";
        Report.metric "dynamic_copies" dynamic "count";
        Report.metric "spill_ops" spills "count";
      ]
  in
  let counters = Serve.Server.counters s.server in
  let cstats = Cache.stats s.cache in
  let lag_sorted = Stats.sorted_of_list !lag in
  let gen_lag = Stats.percentile lag_sorted 99. in
  let extras =
    Report.percentile_metrics "serve.hit_ms" !hit
    @ Report.percentile_metrics "serve.miss_ms" !miss
    @ [
        Report.metric ~n:(Array.length lag_sorted) "serve.gen_lag_ms_p99" (gen_lag *. 1e3) "ms";
        Report.metric "serve.in_flight_max" (float in_flight_max) "count";
        Report.metric "serve.busy" (float !busy) "count";
        Report.metric "serve.errors" (float !errors) "count";
        Report.metric "serve.shed" (float counters.shed) "count";
        Report.metric "serve.dedup" (float cstats.dedup_collapsed) "count";
        Report.metric "serve.contention" (float cstats.contention) "count";
      ]
  in
  let layers =
    if not trace then []
    else begin
      let programs = Array.append s.hot s.bases in
      let sample =
        Array.mapi
          (fun i p ->
            { Inputs.name = Printf.sprintf "program%d" i; func = front p.text; wire = p.text; args = None; paper = false })
          programs
      in
      let acc = Layers.create spans in
      ignore
        (Report.cycles ~seconds:measured ~order:(Array.init (Array.length sample) Fun.id)
           (fun i ->
             fst
               (Layers.replay acc ~scratch ~front ~route:[ Harness.Pipelines.New ] ~req:i
                  sample.(i))));
      Layers.metrics acc @ Report.cache_metrics cstats
    end
  in
  let invalid =
    if gen_lag <= lag_limit then None
    else
      Some
        (Printf.sprintf "the generator ran %.2f ms late at p99 (limit %.0f ms)" (gen_lag *. 1e3)
           (lag_limit *. 1e3))
  in
  let pin_note =
    match pinned with
    | Ok (p, server) -> Printf.sprintf "server on CPUs %s, generator on CPU %s" server p.generator
    | Error why -> "generator not pinned to a core of its own: " ^ why
  in
  {
    Report.workload = "serve-open";
    attempted = c.attempted;
    failed = c.failed;
    invalid;
    seconds = elapsed;
    e2e;
    layers;
    extras = (wall_setup :: extras) @ (if trace then [] else Report.cache_metrics cstats);
    notes =
      pin_note :: Report.block_note "window" blocks
      :: Option.to_list (Option.map (( ^ ) "first failure: ") c.first_failure);
  }
