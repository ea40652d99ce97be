(** Content-addressed compile cache.

    The pass manager makes pipelines declarative and deterministic: the
    same pipeline fingerprint applied to the same input function always
    produces the same report (the PR 4 ordering differentials pin this
    down). That makes whole pipeline runs memoizable — the value-table
    idea of global value numbering lifted to the granularity of a
    compilation. A cache entry is addressed by a dependency-free hash of
    {e content}, never by file name or timestamp:

    {v key = fnv1a64x2 (pipeline fingerprint ⊕ pass-relevant config
                        ⊕ canonical printed input function) v}

    so invalidation is automatic — change the source, the pipeline, its
    arguments, or the [--check] request and the address changes with it.

    Two tiers:

    - an {b in-memory LRU} of at most [capacity] reports, shared by every
      domain of a batch (all operations take an internal mutex; the
      critical sections are lookups and list surgery, never compilation);
    - an optional {b on-disk tier} ([dir]): each entry is one versioned
      text file written atomically (temp file + rename). The disk tier is
      {e corruption-tolerant by contract}: a missing, truncated, stale or
      garbage entry — including one whose embedded key disagrees with its
      address — is a cache miss, never a fault, and provably-bad files
      are deleted on the way out.

    The cache never changes compilation results: a hit returns a report
    that is {!Check.equiv}-equivalent to a fresh compile (the qcheck
    differential in [test/test_cache.ml] enforces exactly this), and
    cache-disabled runs are byte-identical to pre-cache behavior. *)

type t

type stats = {
  hits : int;  (** lookups answered from either tier *)
  misses : int;  (** lookups that fell through to compilation *)
  evictions : int;  (** LRU entries dropped to respect [capacity] *)
  dedup_collapsed : int;
      (** lookups that found the same key already being computed and
          waited for that computation instead of starting their own (see
          {!compute_through}) *)
  bytes_stored : int;
      (** cumulative estimated footprint of stored entries (input,
          stages and output, {!Ir.estimated_bytes} model) *)
  contention : int;
      (** shard-lock acquisitions that found the lock held and had to
          block — the serve path's measure of how hot the cache mutexes
          run under concurrent sessions *)
  disk_evictions : int;
      (** disk-tier entries deleted by the entry-cap sweep (only ever
          non-zero when [disk_capacity] is set) *)
}

val create :
  ?capacity:int -> ?dir:string -> ?shards:int -> ?disk_capacity:int ->
  unit -> t
(** [create ()] is a memory-only cache holding at most [capacity]
    (default 256) reports. With [dir], entries are also persisted under
    [dir] (created if missing) and survive the process; the memory tier
    then acts as the hot front of the disk tier. On disk, entries fan out
    into 256 subdirectories keyed by the leading byte of the key's hex
    form ([dir/ab/<key>.repro-cache]) so a million-entry tier never puts
    a million files in one flat listing. [shards] (default 1) splits the
    memory tier into independently-locked shards so concurrent sessions
    touching different keys never serialize on one mutex; with one shard
    the LRU is exactly global (the deterministic eviction order older
    tests rely on), with [n] shards each shard runs its own LRU over
    [capacity/n] entries. [disk_capacity] (default unbounded) caps the
    disk tier's {e entry count}: when a store pushes the count past the
    cap, a sweep deletes oldest-mtime entries down to ⅞ of the cap
    (hysteresis, so the directory walk amortizes over many stores) and
    counts each deletion in [disk_evictions]. Raises [Sys_error] only if
    [dir] is given and cannot be created. *)

val capacity : t -> int

val shards : t -> int
(** Number of independently-locked shards (≥ 1). *)

val dir : t -> string option
(** The disk-tier directory, if one was configured. *)

val disk_capacity : t -> int option
(** The disk tier's entry cap, if one was configured. *)

val key : pipeline:Pass.Pipeline.t -> check:bool -> Ir.func -> string
(** The content address of compiling [f] through [pipeline]: a 32-hex-char
    hash over the pipeline's {!Pass.Pipeline.fingerprint} (which includes
    every pass argument), the [check] request (a checked run proves more,
    so it never aliases an unchecked one), and the canonical printed form
    of the input function. Dependency-free and stable within a cache
    format version. *)

val compute_through : t -> string -> (unit -> Pass.report) -> [ `Hit | `Miss | `Collapsed ] * Pass.report
(** [compute_through t key compute] is the one way to read or write the
    cache. On a memory or disk hit it returns [(`Hit, report)] and counts
    one hit; a disk hit is promoted into the memory tier. On a miss the
    {e first} caller becomes the owner, runs [compute] outside every lock,
    stores the result in both tiers (evicting least-recently-used memory
    entries beyond [capacity]) and returns [(`Miss, report)], counting one
    miss. Any caller asking for the same key while that computation is in
    flight blocks until it lands and shares the owner's result as
    [(`Collapsed, report)], counting one [dedup_collapsed]. If [compute]
    raises, the owner's exception is re-raised in every blocked caller and
    the flight is retired so a later request retries. Disk-write failures
    are swallowed: a cache that cannot persist degrades to memory-only, it
    does not fail the compile. *)

val stats : t -> stats
(** Monotonic counters since [create]. *)

val zero_stats : stats
(** All-zero counters — the [since] baseline for a fresh delta, and the
    stand-in snapshot when no cache is configured. *)

val record_extras : t -> since:stats -> Obs.t -> unit
(** Publish the counter deltas since [since] into an {!Obs} recorder as
    the extra counters ["cache_hits"], ["cache_misses"],
    ["cache_evictions"], ["cache_dedup_collapsed"], ["cache_bytes_stored"],
    ["cache_lock_contention"], ["cache_disk_evictions"] — the names the
    obs report tables and JSON emission share. Extras never appear in
    cache-disabled runs, keeping golden metric vectors unchanged. *)

(** {1 Disk-entry plumbing, exposed for tests} *)

val serialize : key:string -> Pass.report -> string
(** The versioned on-disk text form ([repro-cache/1] header, printed
    functions fenced by [%%] markers). *)

val deserialize : string -> (string * Pass.report) option
(** Parse {!serialize} output back into (key, report); [None] on any
    malformed, truncated or version-mismatched input (never raises). *)
