type conversion =
  | Standard
  | Coalescing of Core.Coalesce.options
  | Graph of Baseline.Ig_coalesce.variant
  | Sreedhar_i

type config = {
  pruning : Ssa.Construct.pruning;
  fold_copies : bool;
  simplify : bool;
  dce : bool;
  conversion : conversion;
  registers : int option;
}

let default =
  {
    pruning = Ssa.Construct.Pruned;
    fold_copies = true;
    simplify = false;
    dce = false;
    conversion = Coalescing Core.Coalesce.default_options;
    registers = None;
  }

type stage = Pass.stage = {
  name : string;
  func : Ir.func;
  note : string;
}

type report = Pass.report = {
  input : Ir.func;
  output : Ir.func;
  stages : stage list;
}

(* The closed config record is now a compatibility shim: it compiles to a
   pass pipeline and everything downstream is the generic pass manager. *)
let passes_of_config (c : config) : Pass.Pipeline.t =
  (Pass.construct ~pruning:c.pruning ~fold_copies:c.fold_copies ()
   :: (if c.simplify then [ Pass.simplify ] else []))
  @ (if c.dce then [ Pass.dce ] else [])
  @ [
      (match c.conversion with
      | Standard -> Pass.standard
      | Coalescing options -> Pass.coalesce ~options ()
      | Graph variant -> Pass.graph variant
      | Sreedhar_i -> Pass.sreedhar_i);
    ]
  @ match c.registers with
    | None -> []
    | Some k -> [ Pass.regalloc ~registers:k ]

let compile_passes ?(check = false) ?scratch ?obs ?cache passes input =
  match cache with
  | None -> Pass.run ~check ?scratch ?obs passes input
  | Some c ->
    let since = Cache.stats c in
    let key = Cache.key ~pipeline:passes ~check input in
    let r =
      match Cache.find c key with
      | Some r -> r
      | None ->
        let r = Pass.run ~check ?scratch ?obs passes input in
        Cache.store c key r;
        r
    in
    Option.iter (fun o -> Cache.record_extras c ~since o) obs;
    r

let compile ?(config = default) ?check ?scratch ?obs (input : Ir.func) =
  compile_passes ?check ?scratch ?obs (passes_of_config config) input

let compile_source ?config ?check source =
  List.map (fun f -> compile ?config ?check f) (Frontend.Lower.compile source)

(* Streaming compilation across domains: the per-function work is a pure
   function of the input (fresh arenas per domain, deterministic passes),
   so reports reach the consumer in input order and identical to
   sequential compilation. Pass values are immutable closures over their
   options, safe to share across the pool's domains. With a recorder, one
   private recorder per item (recorders are not thread-safe) is merged
   into the caller's at the in-order emission frontier, so aggregated
   counters and span order are deterministic. With a cache, every item
   goes through {!Cache.compute_through} — the serve path's read-through
   door — so concurrent identical items collapse onto one in-flight
   compilation and warm items never reach the pass manager at all. *)
let stream_passes_in pool ?(check = false) ?window ?obs ?cache ~producer
    ~consumer passes =
  let since =
    match cache with Some c -> Cache.stats c | None -> Cache.zero_stats
  in
  let task f =
    let o = Option.map (fun _ -> Obs.create ()) obs in
    let fresh () =
      Pass.run ~check ~scratch:(Support.Scratch.domain ()) ?obs:o passes f
    in
    let r =
      match cache with
      | None -> fresh ()
      | Some c ->
        let key = Cache.key ~pipeline:passes ~check f in
        snd (Cache.compute_through c key fresh)
    in
    (r, o)
  in
  Engine.Stream.run pool ?window ~producer
    ~consumer:(fun seq (r, o) ->
      (match (obs, o) with
      | Some into, Some o -> Obs.merge ~into o
      | _ -> ());
      consumer seq r)
    task;
  match (cache, obs) with
  | Some c, Some o -> Cache.record_extras c ~since o
  | _ -> ()

(* The list-batch form is a façade over the stream. *)
let batch_uncached_in pool ~check ?obs passes (inputs : Ir.func list) =
  let acc = ref [] in
  stream_passes_in pool ~check ?obs
    ~producer:(Engine.Stream.of_list inputs)
    ~consumer:(fun _ r -> acc := r :: !acc)
    passes;
  List.rev !acc

(* With a cache: every item is probed (so warm batches report one hit per
   item, duplicates included), then the missing work is deduplicated by
   content key — identical (function, pipeline, check) items reach the
   domain pool exactly once and fan their one report back out. Reports are
   immutable, so sharing one across duplicate inputs is safe. *)
let batch_cached_in pool ~check ?obs cache passes (inputs : Ir.func list) =
  let since = Cache.stats cache in
  let probed =
    List.map
      (fun f ->
        let key = Cache.key ~pipeline:passes ~check f in
        (key, f, Cache.find cache key))
      inputs
  in
  let seen = Hashtbl.create 16 in
  let miss_reps =
    (* Unique missing keys, first-occurrence order (determinism). *)
    List.filter_map
      (fun (key, f, hit) ->
        if Option.is_some hit || Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (key, f)
        end)
      probed
  in
  let misses =
    List.length (List.filter (fun (_, _, hit) -> Option.is_none hit) probed)
  in
  Cache.note_dedup cache (misses - List.length miss_reps);
  let compiled = Hashtbl.create (List.length miss_reps) in
  List.iter2
    (fun (key, _) r ->
      Cache.store cache key r;
      Hashtbl.replace compiled key r)
    miss_reps
    (batch_uncached_in pool ~check ?obs passes (List.map snd miss_reps));
  let report_of key hit =
    match hit with
    | Some r -> r
    | None -> Hashtbl.find compiled key
  in
  let reports = List.map (fun (key, _, hit) -> report_of key hit) probed in
  Option.iter (fun o -> Cache.record_extras cache ~since o) obs;
  reports

let compile_batch_passes_in pool ?(check = false) ?obs ?cache passes inputs =
  match cache with
  | None -> batch_uncached_in pool ~check ?obs passes inputs
  | Some c -> batch_cached_in pool ~check ?obs c passes inputs

let compile_batch_passes ?jobs ?check ?obs ?cache passes inputs =
  Engine.Pool.with_pool ?jobs (fun pool ->
      compile_batch_passes_in pool ?check ?obs ?cache passes inputs)

let compile_batch ?jobs ?(config = default) ?check ?obs inputs =
  compile_batch_passes ?jobs ?check ?obs (passes_of_config config) inputs

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s -> Format.fprintf ppf "%-10s %s@," s.name s.note)
    r.stages;
  Format.fprintf ppf "@]"
