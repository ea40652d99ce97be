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

(* The config record survives only for the benchmark's default pipeline;
   it compiles to the same passes a spec parses to. *)
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
  let run () = Pass.run ~check ?scratch ?obs passes input in
  match cache with
  | None -> run ()
  | Some c ->
    let since = Cache.stats c in
    let key = Cache.key ~pipeline:passes ~check input in
    let r = snd (Cache.compute_through c key run) in
    Option.iter (fun o -> Cache.record_extras c ~since o) obs;
    r

(* Streaming compilation across domains: the per-function work is a pure
   function of the input (fresh arenas per domain, deterministic passes),
   so reports reach the consumer in input order and identical to
   sequential compilation. Pass values are immutable closures over their
   options, safe to share across the pool's domains. With a recorder, one
   private recorder per item (recorders are not thread-safe) is merged
   into the caller's at the in-order emission frontier, so aggregated
   counters and span order are deterministic. With a cache, every item
   goes through {!Cache.compute_through}, so concurrent identical items
   collapse onto one in-flight compilation and warm items never reach the
   pass manager at all. *)
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
let compile_batch_passes_in pool ?check ?obs ?cache passes inputs =
  let acc = ref [] in
  stream_passes_in pool ?check ?obs ?cache
    ~producer:(Engine.Stream.of_list inputs)
    ~consumer:(fun _ r -> acc := r :: !acc)
    passes;
  List.rev !acc

let compile_batch_passes ?jobs ?check ?obs ?cache passes inputs =
  Engine.Pool.with_pool ?jobs (fun pool ->
      compile_batch_passes_in pool ?check ?obs ?cache passes inputs)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s -> Format.fprintf ppf "%-10s %s@," s.name s.note)
    r.stages;
  Format.fprintf ppf "@]"
