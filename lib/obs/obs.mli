(** Pipeline observability: monotonic counters and timing spans.

    The paper's evaluation (Tables 1–5) is a set of operation counts and
    per-phase times; this module makes those first-class so tests can
    assert on them instead of humans eyeballing a bench table. A
    {!recorder} is a flat vector of counters (one slot per {!counter})
    plus named timing spans; the passes accept an optional recorder and
    charge their work to it.

    Recorders are {e not} thread-safe: parallel drivers give every task
    its own recorder and {!merge} them at the join (counter addition is
    commutative, so totals are independent of scheduling). Counters are
    deterministic for a fixed input; spans are elapsed times and are never
    compared by the golden tests. *)

type counter =
  (* SSA construction *)
  | Phis_inserted
  | Copies_folded
  (* liveness analysis *)
  | Liveness_worklist_pops
  (* critical-edge splitting *)
  | Critical_edges_split
  (* coalescer phase 1: optimistic union with the five filters *)
  | Phi_args_unioned
  | Filter_arg_live_into_block  (** filter 1: arg flows past the φ *)
  | Filter_target_live_out  (** filter 2: target live out of arg's block *)
  | Filter_phi_arg_live_in  (** filter 3: arg is a φ, target live into it *)
  | Filter_sibling_phi  (** filter 4: arg already joined another φ here *)
  | Filter_same_block_args  (** filter 5: two args defined in one block *)
  | Const_phi_args
  (* coalescer phase 2.5: rename invariant *)
  | Rename_detaches
  (* coalescer phase 3: dominance-forest walk *)
  | Forest_nodes_visited
  | Forest_interference_checks
  | Forest_detaches
  (* coalescer phase 4: local interferences *)
  | Local_pairs_deferred
  | Local_interference_checks
  | Local_detaches
  (* coalescer phase 5: surviving classes *)
  | Congruence_classes
  | Congruence_class_members
  (* copy insertion (all conversion routes) *)
  | Copies_inserted
  | Copies_eliminated
  | Parallel_copy_temps
  (* interference-graph baseline *)
  | Igraph_rounds
  | Igraph_coalesced
  (* Sreedhar Method I baseline *)
  | Sreedhar_names_introduced

val all_counters : counter list
(** Every counter, in canonical emission order. *)

val counter_name : counter -> string
(** Stable snake_case identifier used in tables, JSON and golden files. *)

type t
(** A recorder. Owned by one domain at a time. *)

val create : unit -> t
(** Fresh recorder, all counters zero, no spans. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
(** [add t c n] bumps counter [c] by [n] ({!incr} is [add t c 1]). *)

val get : t -> counter -> int
(** Current value of one canonical counter. *)

val now_s : unit -> float
(** Seconds on the monotonic clock, which a wall-clock step cannot move:
    the clock of {!span}, and of every elapsed-time measurement outside a
    recorder (request latency, throughput runs). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f], adding its elapsed time on the monotonic
    clock to the span [name] (accumulating across calls). Re-raises [f]'s
    exceptions, still charging the time spent. *)

val add_span : t -> string -> float -> unit
(** Add [seconds] to the named span directly. *)

val add_extra : t -> string -> int -> unit
(** Add to a named {e extra} counter — an open-ended side channel for
    subsystems whose counters must not disturb the canonical vector (the
    compile cache: ["cache_hits"], ["cache_misses"], …). Extras appear in
    {!counters}, snapshots and JSON only once recorded, so runs that never
    touch the subsystem emit exactly the canonical vector and golden files
    stay comparable. *)

val merge : into:t -> t -> unit
(** Add every counter, extra and span of the source recorder into [into].
    The source is left untouched. *)

val reset : t -> unit

val counters : t -> (string * int) list
(** The full counter vector, canonical order — every counter, including
    zeros, so vectors from different runs always align — followed by any
    recorded extras in first-seen order. *)

val extras : t -> (string * int) list
(** Only the extra counters, first-recorded order; empty when no
    {!add_extra} ever ran. *)

val spans : t -> (string * float) list
(** Accumulated spans in first-recorded order. *)

(** {1 Snapshots and multi-route reports} *)

module Snapshot : sig
  type t = {
    counters : (string * int) list;  (** canonical order *)
    spans : (string * float) list;
  }
end

val snapshot : t -> Snapshot.t
(** Freeze the recorder's counters (canonical vector plus any extras)
    and accumulated spans into an immutable value. *)

type report = (string * Snapshot.t) list
(** One snapshot per conversion route, e.g.
    [("standard", …); ("new", …); ("briggs*", …); ("sreedhar-i", …)]. *)

val report_to_json : ?spans:bool -> report -> string
(** Machine-readable emission (schema ["repro-obs/1"]). [spans] (default
    [false]) includes the timing vector; golden files are written without
    it because wall-clock never compares equal. *)

val report_of_json : string -> report
(** Parse {!report_to_json} output. Raises [Failure] with a position on
    malformed input. *)

(** {1 Golden comparison} *)

type drift = {
  route : string;
  counter : string;
  expected : int;
  actual : int;
  tolerance : float;  (** the relative tolerance that was applied *)
}

val compare_reports :
  ?tolerances:(string * float) list -> expected:report -> report -> drift list
(** Counter-by-counter comparison over the union of routes and counters
    (a key missing on either side counts as 0). A counter passes when
    [|actual - expected| <= tol * |expected|] with [tol] its declared
    relative tolerance (default 0 = exact). Spans are ignored. The result
    is empty iff the reports agree within tolerance. *)

val pp_drift : Format.formatter -> drift -> unit

(** {1 Contention counters}

    Lock-free named counters for the places recorders cannot go: hot
    paths shared by many threads at once (the serve listener, session
    admission, cache locks). A {!Contention.counter} is a single atomic
    cell — safe to bump from any thread or domain with no lock — whose
    total is published into an ordinary recorder as an extra counter at
    a quiet moment (server drain, end of a bench run), so the
    thread-unsafe recorder contract above is never violated. *)

module Contention : sig
  type counter
  (** A named atomic counter, shared freely across threads/domains. *)

  val make : string -> counter
  (** [make name] is a fresh counter at 0; [name] becomes the extra
      counter key used by {!publish}. *)

  val hit : counter -> unit
  (** Bump by one. Lock-free; safe from any thread. *)

  val add : counter -> int -> unit
  (** Bump by [n]. Lock-free; safe from any thread. *)

  val count : counter -> int
  (** Current total (a racy read is fine: the counter is monotonic). *)

  val name : counter -> string
  (** The name given to {!make}. *)

  val publish : counter -> t -> unit
  (** Record the current total into a recorder as the extra counter
      [name] — call only after the threads bumping the counter have
      quiesced, per the recorder's single-owner contract. *)
end

(** {1 Latency histograms}

    A fixed log-bucket histogram in the {!Contention} idiom: one atomic
    cell per power-of-two microsecond bucket, bumped lock-free from any
    thread or domain, read with a racy but monotonic snapshot. *)

module Histogram : sig
  type t

  val make : unit -> t
  (** An empty histogram. Bucket 0 counts durations up to 1 µs, bucket
      [i > 0] those in (2{^i-1}, 2{^i}] µs; the last bucket (2{^31} µs)
      also takes anything longer. *)

  val record : t -> float -> unit
  (** [record h seconds] counts one duration. Lock-free. *)

  val counts : t -> int array
  (** Snapshot of the per-bucket counts, bucket 0 first. *)

  val quantile_us : t -> float -> int
  (** [quantile_us h q] is the upper edge, in µs, of the bucket holding
      the [q]-quantile of the recorded durations (nearest rank); 0 when
      nothing has been recorded. *)
end
