(* Tests for the content-addressed compile cache: key sensitivity, LRU
   eviction, disk-tier corruption tolerance, hostile disk entries, batch
   dedup, obs extras, and the qcheck differential pinning "a cache hit is
   indistinguishable from a fresh compile". Every lookup goes through
   Cache.compute_through, the cache's only door. *)

open Helpers

let spec_pipeline spec = Result.get_ok (Pass.Spec.parse spec)

let default_pipeline () = spec_pipeline "construct:pruned,coalesce"

(* The disk tier fans entries out into per-key-prefix subdirectories, so
   walking and cleaning a cache directory is a two-level affair. *)
let rec rm_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec disk_entry_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then disk_entry_files p else [ p ])

let fresh_tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "repro-cache-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (* Cache.create creates it; start from a clean slate. *)
    if Sys.file_exists d then rm_tree d;
    d

(* ------------------------------------------------------------------ *)
(* Key sensitivity                                                     *)
(* ------------------------------------------------------------------ *)

let test_key_sensitivity () =
  let f = straight_line () and g = diamond () in
  let p = default_pipeline () in
  let k = Cache.key ~pipeline:p ~check:false f in
  checki "key is 32 hex chars" 32 (String.length k);
  String.iter
    (fun c ->
      checkb "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    k;
  checkb "same inputs, same key" true
    (k = Cache.key ~pipeline:p ~check:false f);
  checkb "different function, different key" false
    (k = Cache.key ~pipeline:p ~check:false g);
  checkb "check flag changes the key" false
    (k = Cache.key ~pipeline:p ~check:true f);
  checkb "different pipeline, different key" false
    (k
    = Cache.key ~pipeline:(spec_pipeline "construct,standard") ~check:false f);
  (* Pass arguments must reach the key: the pre-fingerprint Spec.to_string
     dropped them, which would alias regalloc:8 with regalloc:4. *)
  checkb "pass arguments change the key" false
    (Cache.key ~pipeline:(spec_pipeline "construct,coalesce,regalloc:8")
       ~check:false f
    = Cache.key ~pipeline:(spec_pipeline "construct,coalesce,regalloc:4")
        ~check:false f);
  checkb "construct variant changes the key" false
    (Cache.key ~pipeline:(spec_pipeline "construct:pruned,coalesce")
       ~check:false f
    = Cache.key ~pipeline:(spec_pipeline "construct:minimal,coalesce")
        ~check:false f)

(* ------------------------------------------------------------------ *)
(* Memory tier: hits, misses, LRU eviction                             *)
(* ------------------------------------------------------------------ *)

let compile_report f =
  Pass.run (default_pipeline ()) f

(* One lookup of [f] under [key], with a [compute] that counts its calls:
   a [`Miss] that compiled once means "not cached" (and leaves [f] cached),
   a [`Hit] that compiled nothing means "cached". [on_compute] runs at the
   moment the cache falls through to compiling. *)
let lookup ?(on_compute = ignore) c key f =
  let calls = ref 0 in
  let outcome, _ =
    Cache.compute_through c key (fun () ->
        incr calls;
        on_compute ();
        compile_report f)
  in
  (outcome, !calls)

let is_hit c key f = lookup c key f = (`Hit, 0)
let is_miss ?on_compute c key f = lookup ?on_compute c key f = (`Miss, 1)

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  let funcs = [ straight_line (); diamond (); counting_loop () ] in
  let keys =
    List.map
      (fun f -> Cache.key ~pipeline:(default_pipeline ()) ~check:false f)
      funcs
  in
  checkb "cold lookups compile once each" true
    (List.for_all2 (is_miss c) keys funcs);
  let s = Cache.stats c in
  checki "one eviction beyond capacity" 1 s.Cache.evictions;
  checkb "bytes accounted" true (s.Cache.bytes_stored > 0);
  match (keys, funcs) with
  | [ k1; k2; k3 ], [ f1; f2; f3 ] ->
    checkb "recent entries survive" true (is_hit c k2 f2 && is_hit c k3 f3);
    checki "hits counted" 2 (Cache.stats c).Cache.hits;
    (* Touch k2, then bring k1 back: k3 is now the least recently used. *)
    checkb "touch k2" true (is_hit c k2 f2);
    checkb "oldest entry evicted" true (is_miss c k1 f1);
    let s = Cache.stats c in
    checki "misses counted (three cold, one evicted)" 4 s.Cache.misses;
    checki "re-insert evicts again" 2 s.Cache.evictions;
    checkb "LRU respects lookup recency" true
      (is_hit c k2 f2 && is_miss c k3 f3)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Disk tier: persistence and corruption tolerance                     *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let f = counting_loop () in
  let key = Cache.key ~pipeline:(default_pipeline ()) ~check:false f in
  let r = compile_report f in
  let text = Cache.serialize ~key r in
  match Cache.deserialize text with
  | None -> Alcotest.fail "roundtrip lost the entry"
  | Some (k, r') ->
    checkb "key survives" true (k = key);
    checkb "input survives" true
      (Ir.Printer.func_to_string r.input = Ir.Printer.func_to_string r'.input);
    checkb "output survives" true
      (Ir.Printer.func_to_string r.output
      = Ir.Printer.func_to_string r'.output);
    checki "stage count survives" (List.length r.stages)
      (List.length r'.stages);
    List.iter2
      (fun (s : Pass.stage) (s' : Pass.stage) ->
        checkb "stage name survives" true (s.name = s'.name);
        checkb "stage note survives" true (s.note = s'.note))
      r.stages r'.stages

let test_deserialize_rejects_garbage () =
  let f = straight_line () in
  let key = Cache.key ~pipeline:(default_pipeline ()) ~check:false f in
  let good = Cache.serialize ~key (compile_report f) in
  let half = String.sub good 0 (String.length good / 2) in
  List.iter
    (fun (label, text) ->
      checkb label true (Cache.deserialize text = None))
    [
      ("empty", "");
      ("garbage", "not a cache entry\nat all");
      ("truncated entry", half);
      ("missing end marker", String.concat "" [ half; "\n%%output\n" ]);
      ( "wrong format version",
        "repro-cache/0" ^ String.sub good 13 (String.length good - 13) );
      ("body tampered", String.map (fun c -> if c = '=' then '!' else c) good);
    ]

let test_disk_tier () =
  let dir = fresh_tmp_dir () in
  let f = diamond () in
  let key = Cache.key ~pipeline:(default_pipeline ()) ~check:false f in
  let c1 = Cache.create ~capacity:4 ~dir () in
  checkb "first instance compiles" true (is_miss c1 key f);
  (* A second cache over the same directory — a later serve session —
     must hit on disk and promote into memory. *)
  let c2 = Cache.create ~capacity:4 ~dir () in
  checkb "disk hit across instances" true (is_hit c2 key f);
  checki "disk hit counted" 1 (Cache.stats c2).Cache.hits;
  (* Corrupt every on-disk entry: lookups in a third instance must read
     as misses, never fault, and the provably-bad file is removed before
     the cache falls through to compiling. *)
  List.iter
    (fun path ->
      let oc = open_out path in
      output_string oc "corrupted beyond recognition";
      close_out oc)
    (disk_entry_files dir);
  let deleted = ref false in
  let on_compute () =
    deleted :=
      not
        (List.exists
           (fun p -> Filename.basename p = key ^ ".repro-cache")
           (disk_entry_files dir))
  in
  let c3 = Cache.create ~capacity:4 ~dir () in
  checkb "corrupt entry is a miss" true (is_miss ~on_compute c3 key f);
  checki "corrupt miss counted" 1 (Cache.stats c3).Cache.misses;
  checkb "corrupt file deleted" true !deleted;
  (* The tier heals: the miss rewrote the entry, so it round-trips again. *)
  let c4 = Cache.create ~capacity:4 ~dir () in
  checkb "healed after rewrite" true (is_hit c4 key f);
  rm_tree dir

(* The disk tier's entry cap: pushing past [disk_capacity] must trigger
   an oldest-first sweep that brings the tier back under the cap and
   accounts for every deleted entry in [disk_evictions]. *)
let test_disk_cap () =
  let dir = fresh_tmp_dir () in
  let pipeline = default_pipeline () in
  let c = Cache.create ~capacity:4 ~dir ~disk_capacity:8 () in
  let entries =
    List.init 12 (fun i ->
        let f = random_program (1000 + i) (10 + i) in
        let key = Cache.key ~pipeline ~check:false f in
        checkb "each store compiles once" true (is_miss c key f);
        (key, f))
  in
  checki "distinct keys" 12
    (List.length (List.sort_uniq compare (List.map fst entries)));
  let remaining = List.length (disk_entry_files dir) in
  checkb "tier capped" true (remaining <= 8);
  checkb "evictions counted" true ((Cache.stats c).Cache.disk_evictions > 0);
  checki "every store accounted for" 12
    (remaining + (Cache.stats c).Cache.disk_evictions);
  (* An uncapped instance over the same directory sees what survived. *)
  let c2 = Cache.create ~capacity:4 ~dir () in
  let alive =
    List.length (List.filter (fun (k, f) -> is_hit c2 k f) entries)
  in
  checki "survivors readable" remaining alive;
  rm_tree dir

(* Hostile disk entries: a mutated serialized entry sitting at its own
   address is read through the one door. The lookup returns (it neither
   raises nor hangs); a miss leaves a well-formed entry for the key on
   disk, and a hit hands back functions that pass the structural
   validator. Without a checksum a hit may still carry a changed constant,
   so the property asks for validity, not for the original program. About
   one mutation in forty still reads as a hit, hence the count. *)
let prop_hostile_disk_entries =
  QCheck.Test.make ~count:300
    ~name:"cache: mutated disk entry reads as a valid hit or a healing miss"
    QCheck.(
      pair
        (pair (int_bound 10_000) (int_range 5 25))
        (make (Gen.list_size (Gen.int_range 1 4) mutation_gen)))
    (fun ((seed, size), muts) ->
      let f = random_program seed size in
      let key = Cache.key ~pipeline:(default_pipeline ()) ~check:false f in
      let dir = fresh_tmp_dir () in
      let _, r =
        Cache.compute_through (Cache.create ~dir ()) key (fun () ->
            compile_report f)
      in
      let path =
        match disk_entry_files dir with
        | [ p ] -> p
        | _ -> Alcotest.fail "expected exactly one disk entry"
      in
      let text = List.fold_left mutate (Cache.serialize ~key r) muts in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let valid g =
        match Ir.Validate.check_exn g with
        | () -> true
        | exception Ir.Validate.Invalid _ -> false
      in
      let ok =
        match
          Cache.compute_through (Cache.create ~dir ()) key (fun () ->
              compile_report f)
        with
        | `Hit, (r : Pass.report) -> valid r.input && valid r.output
        | `Miss, _ -> (
          match
            Cache.deserialize
              (In_channel.with_open_bin path In_channel.input_all)
          with
          | Some (k, _) -> k = key
          | None -> false)
        | `Collapsed, _ -> false
      in
      rm_tree dir;
      ok)

(* ------------------------------------------------------------------ *)
(* Driver integration: single compiles, batch dedup, obs extras        *)
(* ------------------------------------------------------------------ *)

let test_compile_passes_cache () =
  let c = Cache.create () in
  let f = counting_loop () in
  let p = default_pipeline () in
  let r1 = Driver.Pipeline.compile_passes ~cache:c p f in
  let r2 = Driver.Pipeline.compile_passes ~cache:c p f in
  let s = Cache.stats c in
  checki "first compile missed" 1 s.Cache.misses;
  checki "second compile hit" 1 s.Cache.hits;
  checkb "hit returns the stored report" true (r1 == r2)

(* The canonical counter vector of a recorder, without the cache extras. *)
let pass_counters obs =
  List.filter (fun (name, _) -> not (contains name "cache")) (Obs.counters obs)

let test_batch_dedup_and_warm_hits () =
  let c = Cache.create () in
  let f1 = straight_line () and f2 = diamond () in
  let batch = [ f1; f2; f1; f1 ] in
  let p = default_pipeline () in
  let obs_cold = Obs.create () in
  let cold =
    Driver.Pipeline.compile_batch_passes ~jobs:2 ~obs:obs_cold ~cache:c p batch
  in
  let s = Cache.stats c in
  (* Four items, two distinct keys: each key misses once, and each
     duplicate is a hit or collapses onto its in-flight original. *)
  checki "cold: one miss per distinct key" 2 s.Cache.misses;
  checki "cold: duplicates hit or collapse" 2
    (s.Cache.hits + s.Cache.dedup_collapsed);
  checki "cold: extras show the misses" 2
    (List.assoc "cache_misses" (Obs.extras obs_cold));
  checki "cold: extras show the hits and collapses" 2
    (List.assoc "cache_hits" (Obs.extras obs_cold)
    + List.assoc "cache_dedup_collapsed" (Obs.extras obs_cold));
  (* Each distinct function compiled once: the merged pass counters are
     those of compiling f1 and f2 once each. *)
  let obs_once = Obs.create () in
  List.iter
    (fun f -> ignore (Driver.Pipeline.compile_passes ~obs:obs_once p f))
    [ f1; f2 ];
  check
    Alcotest.(list (pair string int))
    "cold: each distinct function compiled once" (pass_counters obs_once)
    (pass_counters obs_cold);
  let hits_cold = s.Cache.hits in
  let obs_warm = Obs.create () in
  let warm =
    Driver.Pipeline.compile_batch_passes ~jobs:2 ~obs:obs_warm ~cache:c p batch
  in
  let s = Cache.stats c in
  (* The acceptance bar: a warm batch reports one hit per repeated item. *)
  checki "warm: one hit per item" 4 (s.Cache.hits - hits_cold);
  checki "warm: no new misses" 2 s.Cache.misses;
  checki "warm: extras show the hits" 4
    (List.assoc "cache_hits" (Obs.extras obs_warm));
  (* Results are input-ordered and identical across cold and warm runs. *)
  List.iter2
    (fun (a : Driver.Pipeline.report) (b : Driver.Pipeline.report) ->
      checkb "warm output equals cold output" true
        (Ir.Printer.func_to_string a.output = Ir.Printer.func_to_string b.output))
    cold warm;
  List.iter2
    (fun f (r : Driver.Pipeline.report) ->
      checkb "reports stay input-aligned" true
        (Ir.Printer.func_to_string f = Ir.Printer.func_to_string r.input))
    batch warm

let test_extras_absent_without_cache () =
  let obs = Obs.create () in
  let f = straight_line () in
  ignore (Driver.Pipeline.compile_passes ~obs (default_pipeline ()) f);
  checkb "no cache counters in cache-free runs" true (Obs.extras obs = []);
  checkb "snapshot has no cache keys" true
    (List.for_all
       (fun (name, _) -> not (contains name "cache"))
       (Obs.counters obs))

(* ------------------------------------------------------------------ *)
(* The differential: cached result ≡ fresh result                      *)
(* ------------------------------------------------------------------ *)

let cache_specs =
  [
    "construct:pruned,coalesce";
    "construct:pruned,copy-prop,simplify,dce,coalesce";
    "construct:semi-pruned,dce,standard";
    "construct:minimal,coalesce,regalloc:8";
  ]

(* Compile twice through a shared cache (so the second run is a hit) and
   once fresh; the hit must be the stored report, the stored report must
   print identically to the fresh one, and the cached output must be
   Check.equiv to the original program — i.e. a cache hit is semantically
   indistinguishable from compiling. *)
let prop_cached_equals_fresh =
  QCheck.Test.make ~count:25
    ~name:"cache hit ≡ fresh compile (printed form and Check.equiv)"
    QCheck.(triple (int_bound 10_000) (int_range 8 30) (int_bound 1_000))
    (fun (seed, size, pick) ->
      let f = random_program seed size in
      let spec = List.nth cache_specs (pick mod List.length cache_specs) in
      let pipeline = spec_pipeline spec in
      let cache = Cache.create () in
      let cold = Driver.Pipeline.compile_passes ~cache pipeline f in
      let warm = Driver.Pipeline.compile_passes ~cache pipeline f in
      let fresh = Driver.Pipeline.compile_passes pipeline f in
      let hit = (Cache.stats cache).Cache.hits = 1 in
      let same_print =
        Ir.Printer.func_to_string warm.output
        = Ir.Printer.func_to_string fresh.output
      in
      let ignore_arrays =
        if contains spec "regalloc" then [ Regalloc.spill_array ] else []
      in
      let equiv =
        match Check.equiv ~ignore_arrays ~reference:f warm.output with
        | Ok () -> true
        | Error _ -> false
      in
      hit && warm == cold && same_print && equiv)

(* The disk tier under the same differential: a second cache instance over
   the same directory must serve a report that prints identically. *)
let prop_disk_roundtrip =
  QCheck.Test.make ~count:15 ~name:"disk tier round-trips reports verbatim"
    QCheck.(pair (int_bound 10_000) (int_range 8 25))
    (fun (seed, size) ->
      let f = random_program seed size in
      let pipeline = default_pipeline () in
      let dir = fresh_tmp_dir () in
      let key = Cache.key ~pipeline ~check:false f in
      let c1 = Cache.create ~dir () in
      let r = Driver.Pipeline.compile_passes ~cache:c1 pipeline f in
      let c2 = Cache.create ~dir () in
      let round = Cache.compute_through c2 key (fun () -> compile_report f) in
      rm_tree dir;
      match round with
      | `Miss, _ | `Collapsed, _ -> false
      | `Hit, r' ->
        Ir.Printer.func_to_string r.output = Ir.Printer.func_to_string r'.output
        && Ir.Printer.func_to_string r.input
           = Ir.Printer.func_to_string r'.input)

(* Keys are content addresses that outlive a process: entries written to
   disk by one build must hit in the next. These hex values pin the exact
   bytes hashed (format version, pipeline fingerprint, check flag and the
   printed function) for a kernel, a large routine and an SSA form. *)
let test_key_pinned () =
  let p = default_pipeline () in
  let kernel = List.hd (Workloads.Suite.kernels ()) in
  let big =
    List.find
      (fun (e : Workloads.Suite.entry) -> e.name = "big1200")
      (Workloads.Suite.large ())
  in
  let key ?(check = false) f = Cache.key ~pipeline:p ~check f in
  check Alcotest.string "kernel" "5991a309b0b048fa3ad0ade373fe9bcb"
    (key kernel.func);
  check Alcotest.string "big1200" "d2fad91e5b494aece4fde4a30dc17d3f"
    (key big.func);
  check Alcotest.string "big1200 checked" "0bcde9f40642422f41add86aa01016e0"
    (key ~check:true big.func);
  check Alcotest.string "kernel ssa" "83e5aa8b9176d93a31c4665eae932445"
    (key (Ssa.Construct.run_exn kernel.func))

(* Each config record the compile paths used to take and the spec that
   replaced it denote the same pipeline, so every cache key (the
   fingerprint is hashed into it) stays where it was. *)
let test_config_specs_share_fingerprints () =
  let module P = Driver.Pipeline in
  let conv conversion = { P.default with conversion } in
  List.iter
    (fun (config, spec) ->
      check Alcotest.string spec
        (Pass.Pipeline.fingerprint (P.passes_of_config config))
        (Pass.Pipeline.fingerprint (spec_pipeline spec)))
    [
      (P.default, "construct:pruned,coalesce");
      (conv P.Standard, "construct:pruned,standard");
      ( conv (P.Coalescing Core.Coalesce.default_options),
        "construct:pruned,coalesce" );
      ( conv (P.Graph Baseline.Ig_coalesce.Briggs_star),
        "construct:pruned,briggs-star" );
      (conv P.Sreedhar_i, "construct:pruned,sreedhar-i");
      ( {
          (conv (P.Graph Baseline.Ig_coalesce.Briggs_star)) with
          simplify = true;
          dce = true;
          registers = Some 4;
        },
        "construct:pruned,simplify,dce,briggs-star,regalloc:4" );
    ]

let suite =
  [
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "key pinned hex" `Quick test_key_pinned;
    Alcotest.test_case "config and spec fingerprints agree" `Quick
      test_config_specs_share_fingerprints;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "deserialize rejects garbage" `Quick
      test_deserialize_rejects_garbage;
    Alcotest.test_case "disk tier" `Quick test_disk_tier;
    Alcotest.test_case "disk entry cap" `Quick test_disk_cap;
    Alcotest.test_case "compile_passes cache" `Quick test_compile_passes_cache;
    Alcotest.test_case "batch dedup and warm hits" `Quick
      test_batch_dedup_and_warm_hits;
    Alcotest.test_case "extras absent without cache" `Quick
      test_extras_absent_without_cache;
    QCheck_alcotest.to_alcotest prop_cached_equals_fresh;
    QCheck_alcotest.to_alcotest prop_disk_roundtrip;
    QCheck_alcotest.to_alcotest prop_hostile_disk_entries;
  ]
