(* Content-addressed compile cache: an in-memory LRU over Pass.report
   values, optionally backed by a versioned on-disk tier. Keys are hashes
   of content (pipeline fingerprint + config + printed input), so there is
   no invalidation protocol: anything that could change the result changes
   the address. All bookkeeping happens under the key's shard mutex so a
   cache can be shared across the engine's domains; compilation itself
   never runs under a lock. Every lookup and insert goes through
   [compute_through]. *)

let format_version = "repro-cache/1"

(* ------------------------------------------------------------------ *)
(* Hashing: 64-bit FNV-1a, twice with independent offset bases, hex-
   concatenated to a 128-bit content address. Dependency-free and
   byte-stable across platforms (Int64 arithmetic wraps mod 2^64).     *)
(* ------------------------------------------------------------------ *)

let fnv64 ~basis s =
  let prime = 0x100000001b3L in
  let h = ref basis in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) prime
  done;
  !h

let hash_content s =
  Printf.sprintf "%016Lx%016Lx"
    (fnv64 ~basis:0xcbf29ce484222325L s)
    (fnv64 ~basis:0x6c62272e07bb0142L s)

let key ~pipeline ~check (f : Ir.func) =
  (* The '\000' separators keep the components from aliasing each other
     under concatenation; none of them can contain a NUL byte. *)
  let b = Buffer.create 2048 in
  Buffer.add_string b format_version;
  Buffer.add_char b '\000';
  Buffer.add_string b (Pass.Pipeline.fingerprint pipeline);
  Buffer.add_char b '\000';
  Buffer.add_string b (if check then "check" else "nocheck");
  Buffer.add_char b '\000';
  Ir.Printer.add_func b f;
  hash_content (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  dedup_collapsed : int;
  bytes_stored : int;
  contention : int;
  disk_evictions : int;
}

let zero_stats =
  {
    hits = 0;
    misses = 0;
    evictions = 0;
    dedup_collapsed = 0;
    bytes_stored = 0;
    contention = 0;
    disk_evictions = 0;
  }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    dedup_collapsed = a.dedup_collapsed + b.dedup_collapsed;
    bytes_stored = a.bytes_stored + b.bytes_stored;
    contention = a.contention + b.contention;
    disk_evictions = a.disk_evictions + b.disk_evictions;
  }

(* ------------------------------------------------------------------ *)
(* The cache proper: an array of independently-locked shards. A key
   lives in exactly one shard (chosen by hash), so concurrent sessions
   touching different keys never serialize on one mutex. The default of
   one shard preserves the exact global-LRU behavior the deterministic
   eviction tests depend on; the serve path creates many.              *)
(* ------------------------------------------------------------------ *)

type entry = { report : Pass.report; mutable last_use : int }

(* An in-flight computation of one key. The owner publishes into
   [outcome] under the shard lock and broadcasts; waiters count as
   dedup_collapsed. *)
type flight = { mutable outcome : flight_outcome }
and flight_outcome = Pending | Done of Pass.report | Failed of exn

type shard = {
  capacity : int;
  lock : Mutex.t;
  cond : Condition.t;  (* signaled when any flight of this shard lands *)
  table : (string, entry) Hashtbl.t;
  inflight : (string, flight) Hashtbl.t;
  mutable clock : int;  (* recency ticks, bumped on every touch *)
  mutable stats : stats;
}

type t = {
  requested_capacity : int;
  disk_dir : string option;
  disk_capacity : int option;
  shards : shard array;
  contention : int Atomic.t;
      (* try_lock misses — lock acquisitions that had to block *)
  disk_count : int Atomic.t;
      (* approximate live disk-entry count; resynced from a directory
         walk whenever an eviction sweep runs *)
  disk_evictions : int Atomic.t;
  disk_lock : Mutex.t;  (* serializes eviction sweeps, never stores *)
}

let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

(* Lock with contention accounting: an uncontended acquisition is one
   try_lock; a contended one blocks and is counted. The counter is an
   atomic outside any shard lock, so recording contention never causes
   more of it. *)
let locked t (sh : shard) f =
  if not (Mutex.try_lock sh.lock) then begin
    Atomic.incr t.contention;
    Mutex.lock sh.lock
  end;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.is_directory path -> ()
  end

let entry_suffix = ".repro-cache"

(* Every disk entry under [dir], one fan-out level deep: dir/xy/<key>.repro-
   cache where xy is the key's leading byte in hex. Tolerates foreign files
   (skipped) and concurrent deletion (a vanished subdir reads as empty). *)
let disk_entry_paths dir =
  let readdir d = try Sys.readdir d with Sys_error _ -> [||] in
  let acc = ref [] in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat dir sub in
      if try Sys.is_directory subdir with Sys_error _ -> false then
        Array.iter
          (fun f ->
            if Filename.check_suffix f entry_suffix then
              acc := Filename.concat subdir f :: !acc)
          (readdir subdir))
    (readdir dir);
  !acc

let create ?(capacity = 256) ?dir ?(shards = 1) ?disk_capacity () =
  Option.iter mkdir_p dir;
  let capacity = max 1 capacity in
  let nshards = max 1 shards in
  let per_shard = max 1 (capacity / nshards) in
  let initial_disk_count =
    match dir with None -> 0 | Some d -> List.length (disk_entry_paths d)
  in
  {
    requested_capacity = capacity;
    disk_dir = dir;
    disk_capacity = Option.map (max 1) disk_capacity;
    shards =
      Array.init nshards (fun _ ->
          {
            capacity = per_shard;
            lock = Mutex.create ();
            cond = Condition.create ();
            table = Hashtbl.create 64;
            inflight = Hashtbl.create 8;
            clock = 0;
            stats = zero_stats;
          });
    contention = Atomic.make 0;
    disk_count = Atomic.make initial_disk_count;
    disk_evictions = Atomic.make 0;
    disk_lock = Mutex.create ();
  }

let capacity t = t.requested_capacity
let shards t = Array.length t.shards
let dir t = t.disk_dir
let disk_capacity t = t.disk_capacity

let stats t =
  let s =
    Array.fold_left
      (fun acc sh -> add_stats acc (locked t sh (fun () -> sh.stats)))
      zero_stats t.shards
  in
  {
    s with
    contention = Atomic.get t.contention;
    disk_evictions = Atomic.get t.disk_evictions;
  }

(* The footprint model of a stored entry: the functions it snapshots plus
   its strings. Deterministic, so the serve protocol and the golden tests
   can print it. *)
let entry_bytes (r : Pass.report) =
  List.fold_left
    (fun acc (s : Pass.stage) ->
      acc + Ir.estimated_bytes s.func + String.length s.name
      + String.length s.note)
    (Ir.estimated_bytes r.input + Ir.estimated_bytes r.output)
    r.stages

(* ------------------------------------------------------------------ *)
(* On-disk form: a versioned text file. Function bodies are fenced by
   '%%' marker lines, which cannot occur in printer output. Anything
   unexpected during parsing yields None — the disk tier treats every
   malformed entry as a miss.                                          *)
(* ------------------------------------------------------------------ *)

let serialize ~key (r : Pass.report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b format_version;
  Buffer.add_char b '\n';
  Buffer.add_string b ("key " ^ key ^ "\n");
  Buffer.add_string b "%%input\n";
  Ir.Printer.add_func b r.input;
  Buffer.add_char b '\n';
  List.iter
    (fun (s : Pass.stage) ->
      Buffer.add_string b ("%%stage " ^ s.name ^ "\n");
      Buffer.add_string b ("%%note " ^ s.note ^ "\n");
      Ir.Printer.add_func b s.func;
      Buffer.add_char b '\n')
    r.stages;
  Buffer.add_string b "%%output\n";
  Ir.Printer.add_func b r.output;
  Buffer.add_char b '\n';
  Buffer.add_string b "%%end\n";
  Buffer.contents b

let strip_prefix ~prefix s =
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then Some (String.sub s (String.length prefix)
               (String.length s - String.length prefix))
  else None

let deserialize text =
  let lines = String.split_on_char '\n' text in
  (* Take lines until the next %% marker; they form one printed function. *)
  let func_of rev_lines =
    Ir.Parse.func_of_string (String.concat "\n" (List.rev rev_lines))
  in
  let is_marker l = String.length l >= 2 && l.[0] = '%' && l.[1] = '%' in
  let rec take_func acc = function
    | l :: rest when not (is_marker l) -> take_func (l :: acc) rest
    | rest -> (func_of acc, rest)
  in
  try
    match lines with
    | v :: k :: "%%input" :: rest when v = format_version -> (
      match strip_prefix ~prefix:"key " k with
      | None -> None
      | Some key ->
        let input, rest = take_func [] rest in
        let rec stages acc = function
          | l :: rest when strip_prefix ~prefix:"%%stage " l <> None -> (
            let name = Option.get (strip_prefix ~prefix:"%%stage " l) in
            match rest with
            | n :: rest when strip_prefix ~prefix:"%%note " n <> None
                             || n = "%%note" ->
              let note =
                Option.value ~default:"" (strip_prefix ~prefix:"%%note " n)
              in
              let func, rest = take_func [] rest in
              stages ({ Pass.name; func; note } :: acc) rest
            | _ -> None)
          | "%%output" :: rest -> (
            let output, rest = take_func [] rest in
            match rest with
            | "%%end" :: ([] | [ "" ]) ->
              (* A cached result re-enters the pipeline's contract, so it
                 must satisfy the structural validator a fresh compile
                 would have passed; a tampered entry fails here and reads
                 as a miss. *)
              Ir.Validate.check_exn input;
              Ir.Validate.check_exn output;
              Some
                (key, { Pass.input; output; stages = List.rev acc })
            | _ -> None)
          | _ -> None
        in
        stages [] rest)
    | _ -> None
  with _ -> None

(* Fan-out: dir/xy/<key>.repro-cache, where xy is the key's leading byte
   in hex — 256 subdirectories, so a 10⁶-entry tier puts ~4k files per
   directory instead of 10⁶ in one flat listing, and parallel serve
   processes sharing [dir] spread their creates across 256 inodes. *)
let disk_subdir key =
  if String.length key >= 2 then String.sub key 0 2 else "00"

let disk_path t key =
  Option.map
    (fun d -> Filename.concat (Filename.concat d (disk_subdir key))
        (key ^ entry_suffix))
    t.disk_dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Entry-cap enforcement: when the (approximate) live count exceeds the
   cap, one sweep walks the tier, resyncs the count against reality, and
   deletes oldest-mtime entries down to a target below the cap — the
   hysteresis amortizes the directory walk over many stores instead of
   paying one per store at the boundary. Sweeps serialize on [disk_lock]
   (stores never take it), and a concurrently-deleted file is simply not
   counted. mtime order is the disk tier's LRU: a promote-on-hit does not
   refresh mtime, so this is oldest-{e version} eviction — the entries
   written longest ago go first, ties broken by path for determinism. *)
let disk_enforce_cap t =
  match (t.disk_dir, t.disk_capacity) with
  | Some dir, Some cap when Atomic.get t.disk_count > cap ->
    if Mutex.try_lock t.disk_lock then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.disk_lock)
        (fun () ->
          let paths = disk_entry_paths dir in
          Atomic.set t.disk_count (List.length paths);
          let target = max 1 (cap - (cap / 8)) in
          let excess = Atomic.get t.disk_count - target in
          if excess > 0 then begin
            let dated =
              List.filter_map
                (fun p ->
                  match Unix.stat p with
                  | st -> Some (st.Unix.st_mtime, p)
                  | exception _ -> None)
                paths
            in
            List.iteri
              (fun i (_, p) ->
                if i < excess then
                  try
                    Sys.remove p;
                    Atomic.decr t.disk_count;
                    Atomic.incr t.disk_evictions
                  with _ -> ())
              (List.sort compare dated)
          end)
  | _ -> ()

(* Atomic publication: write a private temp file, then rename into place.
   Readers only ever see complete entries; concurrent writers of the same
   key race benignly (identical content). Any failure leaves the cache
   memory-only for this entry. *)
let disk_store t key report =
  match disk_path t key with
  | None -> ()
  | Some path -> (
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Domain.self () :> int)
    in
    (try
       mkdir_p (Filename.dirname path);
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc (serialize ~key report));
       let fresh = not (Sys.file_exists path) in
       Sys.rename tmp path;
       if fresh then Atomic.incr t.disk_count
     with _ -> ( try Sys.remove tmp with _ -> ()));
    disk_enforce_cap t)

let disk_find t key =
  match disk_path t key with
  | None -> None
  | Some path ->
    if not (Sys.file_exists path) then None
    else begin
      match deserialize (read_file path) with
      | Some (k, report) when k = key -> Some report
      | Some _ | None | (exception _) ->
        (* Corrupt or mis-addressed: drop it so the next write heals. *)
        (try
           Sys.remove path;
           Atomic.decr t.disk_count
         with _ -> ());
        None
    end

(* ------------------------------------------------------------------ *)
(* Memory tier (LRU)                                                   *)
(* ------------------------------------------------------------------ *)

let touch (sh : shard) e =
  sh.clock <- sh.clock + 1;
  e.last_use <- sh.clock

(* Capacity is small (hundreds); a scan per eviction keeps the structure
   trivially correct under the shard mutex. *)
let evict_over_capacity (sh : shard) =
  while Hashtbl.length sh.table > sh.capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.last_use <= e.last_use -> acc
          | _ -> Some (k, e))
        sh.table None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove sh.table k;
      sh.stats <- { sh.stats with evictions = sh.stats.evictions + 1 }
  done

(* Only a flight's owner inserts, and only for a key that was absent when
   the flight began, so an insert never meets the key already present. *)
let mem_insert (sh : shard) key report =
  sh.clock <- sh.clock + 1;
  Hashtbl.replace sh.table key { report; last_use = sh.clock };
  evict_over_capacity sh

(* ------------------------------------------------------------------ *)
(* Read-through with cross-client in-flight dedup. The first session to
   miss a key becomes the owner and computes outside every lock; any
   session asking for the same key while the flight is pending blocks on
   the shard condition and shares the owner's result, counting one
   dedup_collapsed. This is what makes identical concurrent requests
   from different serve connections collapse to one compilation.       *)
(* ------------------------------------------------------------------ *)

let compute_through t key compute =
  let sh = shard_of t key in
  let role =
    locked t sh (fun () ->
        match Hashtbl.find_opt sh.table key with
        | Some e ->
          touch sh e;
          sh.stats <- { sh.stats with hits = sh.stats.hits + 1 };
          `Hit e.report
        | None -> (
          match Hashtbl.find_opt sh.inflight key with
          | Some fl ->
            sh.stats <-
              { sh.stats with dedup_collapsed = sh.stats.dedup_collapsed + 1 };
            `Wait fl
          | None ->
            let fl = { outcome = Pending } in
            Hashtbl.add sh.inflight key fl;
            `Own fl))
  in
  match role with
  | `Hit report -> (`Hit, report)
  | `Wait fl -> (
    (* Block until the owner lands this flight. The condition is per
       shard, not per flight: landings are rare relative to waits, and a
       spurious wakeup just re-checks the outcome. *)
    let outcome =
      locked t sh (fun () ->
          while (match fl.outcome with Pending -> true | _ -> false) do
            Condition.wait sh.cond sh.lock
          done;
          fl.outcome)
    in
    match outcome with
    | Done report -> (`Collapsed, report)
    | Failed e -> raise e
    | Pending -> assert false)
  | `Own fl -> (
    (* Owner: probe disk, else compute — both outside the lock — then
       publish, wake waiters, and retire the flight. *)
    let publish outcome stats_update =
      locked t sh (fun () ->
          fl.outcome <- outcome;
          Hashtbl.remove sh.inflight key;
          (match outcome with
          | Done report -> mem_insert sh key report
          | Failed _ | Pending -> ());
          sh.stats <- stats_update sh.stats;
          Condition.broadcast sh.cond)
    in
    match disk_find t key with
    | Some report ->
      publish (Done report) (fun s -> { s with hits = s.hits + 1 });
      (`Hit, report)
    | None -> (
      match compute () with
      | report ->
        publish (Done report) (fun s ->
            {
              s with
              misses = s.misses + 1;
              bytes_stored = s.bytes_stored + entry_bytes report;
            });
        disk_store t key report;
        (`Miss, report)
      | exception e ->
        publish (Failed e) (fun s -> { s with misses = s.misses + 1 });
        raise e))

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let record_extras t ~since obs =
  let s = stats t in
  Obs.add_extra obs "cache_hits" (s.hits - since.hits);
  Obs.add_extra obs "cache_misses" (s.misses - since.misses);
  Obs.add_extra obs "cache_evictions" (s.evictions - since.evictions);
  Obs.add_extra obs "cache_dedup_collapsed"
    (s.dedup_collapsed - since.dedup_collapsed);
  Obs.add_extra obs "cache_bytes_stored" (s.bytes_stored - since.bytes_stored);
  Obs.add_extra obs "cache_lock_contention" (s.contention - since.contention);
  Obs.add_extra obs "cache_disk_evictions"
    (s.disk_evictions - since.disk_evictions)
