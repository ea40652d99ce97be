(* Closed-loop load generator for the socket server.

   N client threads each open one TCP connection and issue
   [requests_per_client] tagged inline-compile requests back-to-back —
   each client waits for its reply before sending the next request, so
   concurrency is exactly the number of connected clients. The request
   bodies rotate through a small corpus of [distinct] generated
   programs: with distinct << clients the same program is in flight on
   many connections at once, which is precisely the shape that exercises
   the cache's in-flight dedup (watch dedup_collapsed in the final
   stats).

   Per-reply wall-clock latency is recorded on the client side; the
   percentiles reported are over successful (ok) replies only, so a shed
   "err status=busy" — which returns in microseconds — cannot flatter
   the latency profile. Busy and error replies are counted separately.

   The generator is transport-honest: it speaks the same line protocol
   as any other client, and reads the server's own counters with a final
   [stats] request over a fresh connection. *)

type result = {
  clients : int;
  requests : int;  (** replies of any kind received *)
  ok : int;
  busy : int;  (** "err status=busy" sheds observed *)
  errors : int;  (** non-busy err replies (should be 0) *)
  elapsed_s : float;
  throughput : float;  (** replies per second of wall-clock *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  server_stats : (string * int) list;
      (** the server's own final [stats] counters, parsed k=v *)
}

(* Distinct single-line mini-language programs, heavy enough that a
   compilation visibly costs more than a cache hit: each runs the full
   default pipeline over a loop nest with reducible copies. *)
let corpus ~distinct =
  List.init distinct (fun i ->
      Printf.sprintf
        "func lg%d(n) { s = %d; i = 0; while (i < 8) { t = s; u = t; j = 0; \
         while (j < 4) { u = u + j * %d; j = j + 1; } s = u + 1; i = i + 1; \
         } return s + n; }"
        i i (i + 1))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p /. 100.0 *. float (n - 1) +. 0.5)))

type client_tally = {
  mutable c_ok : int;
  mutable c_busy : int;
  mutable c_err : int;
  mutable lat : float list;  (* seconds, ok replies only *)
}

let connect host port =
  Unix.open_connection
    (Unix.ADDR_INET ((if host = "" then Unix.inet_addr_loopback
                      else Unix.inet_addr_of_string host), port))

let classify_reply line =
  if String.length line >= 3 && String.sub line 0 3 = "ok " then `Ok
  else if
    (* "err [tag=T] status=busy ..." *)
    String.length line >= 4
    && String.sub line 0 4 = "err "
    && List.exists (( = ) "status=busy") (String.split_on_char ' ' line)
  then `Busy
  else `Err

let client_loop host port programs requests tally =
  let ic, oc = connect host port in
  Fun.protect
    ~finally:(fun () ->
      (try
         output_string oc "quit\n";
         flush oc;
         ignore (input_line ic)
       with Sys_error _ | End_of_file -> ());
      try Unix.shutdown_connection ic; close_in_noerr ic
      with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      let nprog = Array.length programs in
      for j = 0 to requests - 1 do
        let request =
          Printf.sprintf "inline --tag r%d %s" j programs.(j mod nprog)
        in
        let t0 = Obs.now_s () in
        output_string oc request;
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | exception End_of_file -> raise Exit
        | reply -> (
          let dt = Obs.now_s () -. t0 in
          match classify_reply reply with
          | `Ok ->
            tally.c_ok <- tally.c_ok + 1;
            tally.lat <- dt :: tally.lat
          | `Busy -> tally.c_busy <- tally.c_busy + 1
          | `Err -> tally.c_err <- tally.c_err + 1)
      done)

let fetch_stats host port =
  match connect host port with
  | exception Unix.Unix_error _ -> []
  | ic, oc ->
    Fun.protect
      ~finally:(fun () ->
        try Unix.shutdown_connection ic; close_in_noerr ic
        with Unix.Unix_error _ | Sys_error _ -> ())
      (fun () ->
        output_string oc "stats\nquit\n";
        flush oc;
        match input_line ic with
        | exception End_of_file -> []
        | line ->
          List.filter_map
            (fun tok ->
              match String.index_opt tok '=' with
              | None -> None
              | Some i -> (
                let k = String.sub tok 0 i in
                match
                  int_of_string_opt
                    (String.sub tok (i + 1) (String.length tok - i - 1))
                with
                | Some v -> Some (k, v)
                | None -> None))
            (String.split_on_char ' ' line))

let run ?(host = "") ~port ~clients ~requests_per_client ?(distinct = 16) () =
  if clients < 1 then invalid_arg "Loadgen.run: clients must be >= 1";
  if requests_per_client < 1 then
    invalid_arg "Loadgen.run: requests_per_client must be >= 1";
  let programs = Array.of_list (corpus ~distinct:(max 1 distinct)) in
  let tallies =
    Array.init clients (fun _ -> { c_ok = 0; c_busy = 0; c_err = 0; lat = [] })
  in
  let t0 = Obs.now_s () in
  let threads =
    Array.init clients (fun i ->
        Thread.create
          (fun () ->
            try client_loop host port programs requests_per_client tallies.(i)
            with _ -> ())
          ())
  in
  Array.iter Thread.join threads;
  let elapsed_s = Obs.now_s () -. t0 in
  let ok = Array.fold_left (fun a t -> a + t.c_ok) 0 tallies in
  let busy = Array.fold_left (fun a t -> a + t.c_busy) 0 tallies in
  let errors = Array.fold_left (fun a t -> a + t.c_err) 0 tallies in
  let requests = ok + busy + errors in
  let lat =
    Array.of_list (Array.fold_left (fun a t -> List.rev_append t.lat a) [] tallies)
  in
  Array.sort compare lat;
  let pct p = percentile lat p *. 1000.0 in
  {
    clients;
    requests;
    ok;
    busy;
    errors;
    elapsed_s;
    throughput = (if elapsed_s > 0.0 then float requests /. elapsed_s else 0.0);
    p50_ms = pct 50.0;
    p95_ms = pct 95.0;
    p99_ms = pct 99.0;
    server_stats = fetch_stats host port;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>clients            %8d@,requests           %8d@,ok                 \
     %8d@,busy (shed)        %8d@,errors             %8d@,elapsed            \
     %8.2f s@,throughput         %8.1f req/s@,latency p50        %8.3f \
     ms@,latency p95        %8.3f ms@,latency p99        %8.3f ms" r.clients
    r.requests r.ok r.busy r.errors r.elapsed_s r.throughput r.p50_ms r.p95_ms
    r.p99_ms;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "@,server %-12s%8d" k v)
    r.server_stats;
  Format.fprintf ppf "@]"
