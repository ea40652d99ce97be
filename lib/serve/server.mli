(** Concurrent socket server for the compile service.

    Promotes the single-client [repro-cli serve] loop to a listener that
    multiplexes many simultaneous connections onto one shared warm
    {!Engine.Pool}. Each connection speaks the {!Protocol} line grammar;
    per-connection reply order always matches request order, while the
    work itself is scheduled freely across the pool's domains. With a
    cache configured, every function compiles through
    {!Cache.compute_through}, so identical concurrent requests from
    different clients collapse onto a single compilation.

    Overload never crashes the server and never queues unboundedly:
    requests beyond the per-connection in-flight limit or the global
    bounded queue are shed with ["err status=busy"], and connections
    beyond [max_conns] are refused with the same line. *)

type config = {
  jobs : int;  (** engine-pool width: concurrent compilations *)
  queue_capacity : int;  (** global pending-request bound *)
  per_conn : int;  (** per-connection in-flight request limit *)
  max_conns : int;  (** simultaneous-connection limit *)
  cache : Cache.t option;
      (** shared read-through cache; [None] disables caching and
          cross-client dedup *)
}

val default_config : config
(** 2 jobs, 64-deep queue, 8 in-flight per connection, 1024 connections,
    no cache. *)

type listen =
  | Tcp of string * int
      (** host (numeric, [""] = loopback) and port ([0] = ephemeral;
          read the bound port back with {!port}) *)
  | Unix_path of string
      (** unix-domain socket path; created on {!start}, unlinked on
          {!stop} *)

type t
(** A running server. *)

(** Monotonic server-side accounting, all updated lock-free. *)
type counters = {
  accepted : int;  (** connections admitted to a session *)
  refused : int;  (** connections turned away at [max_conns] *)
  served : int;  (** work requests evaluated to a reply *)
  shed : int;  (** busy replies: per-conn limit, full queue, refusals *)
  live_conns : int;  (** sessions currently open *)
  queued : int;  (** requests pending in the global queue right now *)
}

val start : ?config:config -> listen -> t
(** Bind, listen and return immediately; the listener, per-connection
    sessions and pool workers all run on background threads. Raises
    [Unix.Unix_error] if the address cannot be bound. *)

val port : t -> int
(** The bound TCP port (useful with [Tcp (_, 0)]). Raises
    [Invalid_argument] for a unix-domain server. *)

val address : t -> string
(** Human-readable bound address: ["127.0.0.1:PORT"] or the socket
    path. *)

val counters : t -> counters
(** Snapshot of the server counters. *)

val residence : t -> Obs.Histogram.t
(** Server residence of every admitted work request: from the reader's
    admission to the writer's flush of its reply. Busy sheds and the
    replies made in place ([stats], [quit]) are not counted. *)

val residence_fields : t -> string
(** ["res_p50_us=N res_p99_us=N"]: the upper edges, in µs, of the
    {!residence} buckets holding the median and the 99th percentile
    (0 before the first reply). *)

val stats_body : t -> string
(** The body of the protocol's [stats] reply: server counters, the
    cache's hit/miss/dedup/contention totals and {!residence_fields},
    as one ["stats k=v ..."] line. *)

val stop : t -> unit
(** Graceful drain, idempotent: stop accepting, end every session after
    its admitted replies are flushed, then retire the queue, the pool
    workers and the listening socket. No admitted request is dropped. *)
