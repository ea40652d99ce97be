(* Tests for the serve subsystem: the bounded queue, the cache's
   in-flight dedup (compute_through), the stdin loop's per-request cache
   note, and multi-client TCP soak tests
   against the concurrent server — per-client reply ordering, collapse
   of identical concurrent requests, busy-shed accounting under a tiny
   queue bound, connection refusal at max_conns, unix-domain transport
   and a clean drain that leaks neither file descriptors nor sessions. *)

open Helpers

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bqueue                                                              *)
(* ------------------------------------------------------------------ *)

let test_bqueue_fifo () =
  let q = Support.Bqueue.create ~capacity:3 in
  checki "capacity" 3 (Support.Bqueue.capacity q);
  checkb "push 1" true (Support.Bqueue.try_push q 1);
  checkb "push 2" true (Support.Bqueue.try_push q 2);
  checkb "push 3" true (Support.Bqueue.try_push q 3);
  checkb "full refuses" false (Support.Bqueue.try_push q 4);
  checki "length" 3 (Support.Bqueue.length q);
  checkb "fifo 1" true (Support.Bqueue.pop q = Some 1);
  checkb "fifo 2" true (Support.Bqueue.pop q = Some 2);
  checkb "room again" true (Support.Bqueue.try_push q 5);
  checkb "fifo 3" true (Support.Bqueue.pop q = Some 3);
  checkb "fifo 5" true (Support.Bqueue.pop q = Some 5)

let test_bqueue_close () =
  let q = Support.Bqueue.create ~capacity:2 in
  checkb "push" true (Support.Bqueue.try_push q 1);
  (* A consumer blocked before close must wake and drain. *)
  let got = ref [] and lock = Mutex.create () in
  let consumer =
    Thread.create
      (fun () ->
        let rec go () =
          match Support.Bqueue.pop q with
          | Some x ->
            Mutex.lock lock;
            got := x :: !got;
            Mutex.unlock lock;
            go ()
          | None -> ()
        in
        go ())
      ()
  in
  Thread.delay 0.02;
  Support.Bqueue.close q;
  Thread.join consumer;
  checkb "closed" true (Support.Bqueue.is_closed q);
  checkb "drained before None" true (!got = [ 1 ]);
  checkb "push after close refused" false (Support.Bqueue.try_push q 2);
  checkb "pop after close is None" true (Support.Bqueue.pop q = None);
  checkb "close is idempotent" true (Support.Bqueue.close q = ())

let test_bqueue_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity must be >= 1") (fun () ->
      ignore (Support.Bqueue.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* Cache.compute_through: read-through with in-flight dedup            *)
(* ------------------------------------------------------------------ *)

let dummy_report () =
  let f = straight_line () in
  { Pass.input = f; output = f; stages = [] }

let test_compute_through_hit_miss () =
  let c = Cache.create ~capacity:8 () in
  let calls = ref 0 in
  let compute () = incr calls; dummy_report () in
  let o1, _ = Cache.compute_through c "k1" compute in
  let o2, _ = Cache.compute_through c "k1" compute in
  checkb "first is a miss" true (o1 = `Miss);
  checkb "second is a hit" true (o2 = `Hit);
  checki "computed once" 1 !calls;
  let s = Cache.stats c in
  checki "stats hits" 1 s.Cache.hits;
  checki "stats misses" 1 s.Cache.misses;
  checki "no collapse" 0 s.Cache.dedup_collapsed

(* Deterministic collapse: the owner's compute blocks on a gate until the
   waiters have piled up; their compute closure must never run at all. *)
let test_compute_through_collapse () =
  let c = Cache.create ~capacity:8 () in
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let started = ref false and release = ref false in
  let owner =
    Thread.create
      (fun () ->
        ignore
          (Cache.compute_through c "k" (fun () ->
               Mutex.lock gate;
               started := true;
               Condition.broadcast cond;
               while not !release do
                 Condition.wait cond gate
               done;
               Mutex.unlock gate;
               dummy_report ())))
      ()
  in
  Mutex.lock gate;
  while not !started do
    Condition.wait cond gate
  done;
  Mutex.unlock gate;
  (* The flight is open: these three must block as waiters, and their
     compute must never be consulted. *)
  let outcomes = Array.make 3 `Miss in
  let waiters =
    Array.init 3 (fun i ->
        Thread.create
          (fun () ->
            let o, _ =
              Cache.compute_through c "k" (fun () ->
                  Alcotest.fail "waiter computed despite in-flight owner")
            in
            outcomes.(i) <- o)
          ())
  in
  Thread.delay 0.05;
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  Thread.join owner;
  Array.iter Thread.join waiters;
  Array.iteri
    (fun i o -> checkb (Printf.sprintf "waiter %d collapsed" i) true (o = `Collapsed))
    outcomes;
  let s = Cache.stats c in
  checki "dedup_collapsed" 3 s.Cache.dedup_collapsed;
  checki "one miss" 1 s.Cache.misses;
  (* Collapsed waits are their own counter, not hits: the memory tier was
     never consulted. *)
  checki "no hits yet" 0 s.Cache.hits;
  checkb "now cached" true (fst (Cache.compute_through c "k" dummy_report) = `Hit)

exception Boom

let test_compute_through_failure () =
  let c = Cache.create ~capacity:8 () in
  Alcotest.check_raises "owner re-raises" Boom (fun () ->
      ignore (Cache.compute_through c "k" (fun () -> raise Boom)));
  (* The failure must not poison the key: a later compute runs afresh. *)
  let o, _ = Cache.compute_through c "k" dummy_report in
  checkb "key not poisoned" true (o = `Miss);
  let o2, _ = Cache.compute_through c "k" dummy_report in
  checkb "and then cached" true (o2 = `Hit)

(* The stdin loop's reply note: a duplicate inside one request gets its
   report without a compilation of its own, so it counts as a hit whether
   it found its original cached or collapsed onto it in flight, and
   hits + misses = funcs. *)
let test_batch_compile_duplicates () =
  let cache = Some (Cache.create ()) in
  let p = Pass.Spec.parse_exn "construct:pruned,coalesce" in
  let f1 = straight_line () and f2 = diamond () in
  let batch = [ f1; f2; f1; f1 ] in
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      let note () = snd (Serve.Protocol.batch_compile ~pool ~cache p batch) in
      let cold = note () in
      checkb ("cold: " ^ cold) true
        (contains cold "funcs=4" && contains cold "hits=2 misses=2");
      let warm = note () in
      checkb ("warm: " ^ warm) true (contains warm "hits=4 misses=0"))

let test_sharded_stats () =
  let c = Cache.create ~capacity:16 ~shards:4 () in
  checki "shards" 4 (Cache.shards c);
  for i = 0 to 9 do
    ignore (Cache.compute_through c (Printf.sprintf "k%d" i) dummy_report)
  done;
  for i = 0 to 9 do
    ignore (Cache.compute_through c (Printf.sprintf "k%d" i) dummy_report)
  done;
  let s = Cache.stats c in
  checki "misses across shards" 10 s.Cache.misses;
  checki "hits across shards" 10 s.Cache.hits

(* ------------------------------------------------------------------ *)
(* TCP soak                                                            *)
(* ------------------------------------------------------------------ *)

let with_server ?(config = Serve.Server.default_config) f =
  let server = Serve.Server.start ~config (Serve.Server.Tcp ("", 0)) in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server)

let connect server =
  Unix.open_connection
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.Server.port server))

let disconnect (ic, _oc) =
  try Unix.shutdown_connection ic; close_in_noerr ic
  with Unix.Unix_error _ | Sys_error _ -> ()

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let cached_config ~jobs ~queue ~per_conn =
  {
    Serve.Server.jobs;
    queue_capacity = queue;
    per_conn;
    max_conns = 1024;
    cache = Some (Cache.create ~capacity:256 ~shards:4 ());
  }

(* With no cache, one inline line gets the same reply from the stdin
   loop's batch and from the socket server: every function compiled is a
   miss on both, so hits + misses = funcs. *)
let test_uncached_transports_agree () =
  let line = "inline func u(n) { return n + 1; } func v(a, b) { return a * b; }" in
  let stdin_reply =
    Engine.Pool.with_pool ~jobs:1 (fun pool ->
        match
          Serve.Protocol.respond
            ~compile:(Serve.Protocol.batch_compile ~pool ~cache:None)
            ~stats:(fun () -> "") line
        with
        | Serve.Protocol.Reply r -> r
        | No_reply | Bye _ -> Alcotest.fail "stdin: no reply")
  in
  checkb ("stdin: " ^ stdin_reply) true (contains stdin_reply "hits=0 misses=2");
  with_server (fun server ->
      let ic, oc = connect server in
      send oc line;
      checks "tcp reply = stdin reply" stdin_reply (input_line ic);
      send oc "quit";
      checks "bye" "ok bye" (input_line ic);
      disconnect (ic, oc))

(* Property: mutated request lines — an inline program, compile and run
   of a file, stats — each get a reply that is [ok …] or
   [err … status=…], or no reply, or the session's end; no exception
   escapes [respond]. A mutation may split a line, as a stray newline
   would on the wire. *)
let prop_mutated_lines =
  let path = Filename.temp_file "repro-serve-mutated" ".mini" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "func f(a, b) { c = a * b; return c + 1; }\n");
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let lines seed size =
    let src =
      Frontend.Ast.func_to_source
        (Workloads.Generator.generate { Workloads.Generator.default with seed; size })
      |> String.map (fun c -> if c = '\n' then ' ' else c)
    in
    [
      "inline --tag t1 " ^ src;
      "compile --passes construct:pruned,briggs-star " ^ path;
      "run --args 3,4 --passes construct:pruned,coalesce " ^ path;
      "stats";
    ]
  in
  let cache = Some (Cache.create ~capacity:8 ()) in
  QCheck.Test.make ~count:300
    ~name:"serve: mutated request lines get ok or err replies"
    QCheck.(
      triple (int_bound 10_000) (int_range 5 20)
        (make (Gen.list_size (Gen.int_range 1 4) mutation_gen)))
    (fun (seed, size, muts) ->
      Engine.Pool.with_pool ~jobs:1 (fun pool ->
          let respond line =
            match
              Serve.Protocol.respond
                ~compile:(Serve.Protocol.batch_compile ~pool ~cache)
                ~stats:(fun () -> "stats") line
            with
            | Serve.Protocol.Reply r ->
              String.starts_with ~prefix:"ok" r
              || (String.starts_with ~prefix:"err " r && contains r "status=")
            | No_reply | Bye _ -> true
          in
          List.for_all
            (fun line ->
              let text = List.fold_left mutate line muts in
              List.for_all respond (String.split_on_char '\n' text))
            (lines seed size)))

(* Each client pipelines tagged requests of mixed cost (inline compiles
   and stats) and then checks that the replies come back tagged in
   exactly the order sent, whatever the pool did with the work. *)
let test_ordering_under_concurrency () =
  with_server ~config:(cached_config ~jobs:2 ~queue:64 ~per_conn:32)
    (fun server ->
      let programs = Array.of_list (Serve.Loadgen.corpus ~distinct:4) in
      let failures = ref [] and lock = Mutex.create () in
      let client ci () =
        let ic, oc = connect server in
        let n = 12 in
        for j = 0 to n - 1 do
          let tag = Printf.sprintf "c%dr%d" ci j in
          if j mod 5 = 4 then send oc (Printf.sprintf "stats --tag %s" tag)
          else
            send oc
              (Printf.sprintf "inline --tag %s %s" tag programs.(j mod 4))
        done;
        for j = 0 to n - 1 do
          let tag = Printf.sprintf "tag=c%dr%d" ci j in
          let reply = input_line ic in
          let toks = String.split_on_char ' ' reply in
          if not (List.exists (( = ) tag) toks) then begin
            Mutex.lock lock;
            failures :=
              Printf.sprintf "client %d reply %d: want %s got %S" ci j tag
                reply
              :: !failures;
            Mutex.unlock lock
          end
        done;
        send oc "quit";
        checks "bye" "ok bye" (input_line ic);
        disconnect (ic, oc)
      in
      let threads = Array.init 8 (fun ci -> Thread.create (client ci) ()) in
      Array.iter Thread.join threads;
      checkb
        (String.concat "; " !failures)
        true (!failures = []))

(* Identical concurrent cold requests from many clients must collapse
   onto one compilation. Each round uses a fresh program (fresh cache
   key) raced by a platoon of clients; across a handful of rounds the
   overlap is effectively certain. *)
let test_dedup_collapse_over_tcp () =
  with_server ~config:(cached_config ~jobs:2 ~queue:128 ~per_conn:8)
    (fun server ->
      let collapsed server =
        List.fold_left
          (fun acc tok ->
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "dedup" ->
              int_of_string (String.sub tok (i + 1) (String.length tok - i - 1))
            | _ -> acc)
          0
          (String.split_on_char ' ' (Serve.Server.stats_body server))
      in
      let round r =
        (* The program must take long enough to compile that its flight
           stays open across an OS scheduling tick — on a single core,
           another worker only pops the identical request after the
           compiling domain is preempted. ~150 loop nests ≈ tens of ms. *)
        let program =
          let b = Buffer.create 16_384 in
          Buffer.add_string b (Printf.sprintf "func dd%d(n) { s = %d; " r r);
          for i = 0 to 149 do
            Buffer.add_string b
              (Printf.sprintf
                 "x%d = s + %d; i%d = 0; while (i%d < 4) { t%d = x%d; x%d = \
                  t%d + i%d; i%d = i%d + 1; } s = x%d; "
                 i i i i i i i i i i i i)
          done;
          Buffer.add_string b "return s; }";
          Buffer.contents b
        in
        let clients = 12 in
        let barrier = Mutex.create () and cond = Condition.create () in
        let ready = ref 0 and go = ref false in
        let one () =
          let ic, oc = connect server in
          Mutex.lock barrier;
          incr ready;
          Condition.broadcast cond;
          while not !go do
            Condition.wait cond barrier
          done;
          Mutex.unlock barrier;
          send oc ("inline " ^ program);
          let reply = input_line ic in
          checkb ("ok reply: " ^ reply) true (String.length reply > 2 && String.sub reply 0 2 = "ok");
          send oc "quit";
          ignore (input_line ic);
          disconnect (ic, oc)
        in
        let threads = Array.init clients (fun _ -> Thread.create one ()) in
        Mutex.lock barrier;
        while !ready < clients do
          Condition.wait cond barrier
        done;
        go := true;
        Condition.broadcast cond;
        Mutex.unlock barrier;
        Array.iter Thread.join threads
      in
      let rec rounds r =
        if collapsed server > 0 then ()
        else if r >= 10 then
          checkb "in-flight requests collapsed within 10 rounds" true
            (collapsed server > 0)
        else begin
          round r;
          rounds (r + 1)
        end
      in
      rounds 0)

(* A tiny queue and per-connection limit against a pipelined burst: some
   requests are served, the rest shed with status=busy, the session
   survives, and the server's shed counter matches what the client saw. *)
let test_busy_shed_accounting () =
  let config =
    {
      Serve.Server.jobs = 1;
      queue_capacity = 1;
      per_conn = 2;
      max_conns = 16;
      cache = None;
    }
  in
  with_server ~config (fun server ->
      let ic, oc = connect server in
      let n = 100 in
      let program = List.hd (Serve.Loadgen.corpus ~distinct:1) in
      for j = 0 to n - 1 do
        send oc (Printf.sprintf "inline --tag b%d %s" j program)
      done;
      let ok = ref 0 and busy = ref 0 and other = ref 0 in
      for _ = 1 to n do
        let reply = input_line ic in
        let toks = String.split_on_char ' ' reply in
        if List.exists (( = ) "status=busy") toks then incr busy
        else if String.length reply >= 2 && String.sub reply 0 2 = "ok" then
          incr ok
        else incr other
      done;
      (* The session survives the storm. *)
      send oc "stats";
      let stats_reply = input_line ic in
      checkb "stats after storm" true
        (String.length stats_reply > 3 && String.sub stats_reply 0 3 = "ok ");
      send oc "quit";
      checks "bye" "ok bye" (input_line ic);
      disconnect (ic, oc);
      checki "every request answered" n (!ok + !busy + !other);
      checki "no non-busy errors" 0 !other;
      checkb "some served" true (!ok > 0);
      checkb "some shed" true (!busy > 0);
      let c = Serve.Server.counters server in
      checki "server counted every shed" !busy c.Serve.Server.shed;
      checki "server counted every serve" !ok c.Serve.Server.served)

let test_max_conns_refusal () =
  let config =
    { Serve.Server.default_config with max_conns = 1; jobs = 1 }
  in
  with_server ~config (fun server ->
      let ic1, oc1 = connect server in
      (* Prove the first session is registered before racing the second. *)
      send oc1 "stats";
      checkb "first client live" true
        (String.length (input_line ic1) > 0);
      let ic2, oc2 = connect server in
      let reply = input_line ic2 in
      checkb ("refused with busy: " ^ reply) true
        (List.exists (( = ) "status=busy") (String.split_on_char ' ' reply));
      checkb "and closed" true
        (match input_line ic2 with
        | exception End_of_file -> true
        | _ -> false);
      disconnect (ic2, oc2);
      send oc1 "quit";
      checks "bye" "ok bye" (input_line ic1);
      disconnect (ic1, oc1);
      let c = Serve.Server.counters server in
      checki "refusal counted" 1 c.Serve.Server.refused)

let test_unix_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-serve-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Serve.Server.start
      ~config:(cached_config ~jobs:1 ~queue:16 ~per_conn:4)
      (Serve.Server.Unix_path path)
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      checks "address is the path" path (Serve.Server.address server);
      let ic, oc = Unix.open_connection (Unix.ADDR_UNIX path) in
      send oc "inline func u(n) { return n + 1; }";
      let reply = input_line ic in
      checkb ("compiled over unix socket: " ^ reply) true
        (String.sub reply 0 2 = "ok");
      send oc "quit";
      checks "bye" "ok bye" (input_line ic);
      disconnect (ic, oc));
  checkb "socket file unlinked on stop" false (Sys.file_exists path)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Start, load, stop: afterwards no sessions survive, stop is idempotent,
   and the process fd table is back where it started — nothing leaked by
   the listener, the sessions or the self-pipe. *)
let test_clean_drain_no_leaks () =
  let before = count_fds () in
  let config = cached_config ~jobs:2 ~queue:32 ~per_conn:8 in
  let server = Serve.Server.start ~config (Serve.Server.Tcp ("", 0)) in
  let clients =
    Array.init 6 (fun ci ->
        Thread.create
          (fun () ->
            let ic, oc = connect server in
            for j = 0 to 4 do
              send oc
                (Printf.sprintf "inline --tag d%d_%d func f%d(n) { return n \
                                 + %d; } " ci j ci j);
              ignore (input_line ic)
            done;
            send oc "quit";
            ignore (input_line ic);
            disconnect (ic, oc))
          ())
  in
  Array.iter Thread.join clients;
  Serve.Server.stop server;
  Serve.Server.stop server;
  let c = Serve.Server.counters server in
  checki "no live sessions after stop" 0 c.Serve.Server.live_conns;
  checki "queue empty after stop" 0 c.Serve.Server.queued;
  checkb "every accepted session served work" true (c.Serve.Server.served >= 30);
  checki "no fd leak" before (count_fds ())

let suite =
  [
    Alcotest.test_case "bqueue fifo+bound" `Quick test_bqueue_fifo;
    Alcotest.test_case "bqueue close semantics" `Quick test_bqueue_close;
    Alcotest.test_case "bqueue bad capacity" `Quick test_bqueue_bad_capacity;
    Alcotest.test_case "compute_through hit/miss" `Quick
      test_compute_through_hit_miss;
    Alcotest.test_case "compute_through collapse" `Quick
      test_compute_through_collapse;
    Alcotest.test_case "compute_through failure" `Quick
      test_compute_through_failure;
    Alcotest.test_case "stdin batch counts duplicates as hits" `Quick
      test_batch_compile_duplicates;
    Alcotest.test_case "uncached: stdin and tcp notes agree" `Quick
      test_uncached_transports_agree;
    Alcotest.test_case "sharded stats" `Quick test_sharded_stats;
    QCheck_alcotest.to_alcotest prop_mutated_lines;
    Alcotest.test_case "tcp per-client ordering" `Quick
      test_ordering_under_concurrency;
    Alcotest.test_case "tcp in-flight dedup collapse" `Quick
      test_dedup_collapse_over_tcp;
    Alcotest.test_case "tcp busy-shed accounting" `Quick
      test_busy_shed_accounting;
    Alcotest.test_case "tcp max-conns refusal" `Quick test_max_conns_refusal;
    Alcotest.test_case "unix-domain transport" `Quick test_unix_socket;
    Alcotest.test_case "clean drain, no leaks" `Quick
      test_clean_drain_no_leaks;
  ]
