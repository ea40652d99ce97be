type ctx = {
  input : Ir.func;
  scratch : Support.Scratch.t option;
  obs : Obs.t option;
  check : bool;
}

type shape = Construct | Transform | Conversion | Finish

type t = {
  name : string;
  stage : string;
  span : string;
  key : string;
  shape : shape;
  run :
    ctx ->
    Analysis.Facts.t option ->
    Ir.func ->
    Ir.func * Analysis.Facts.t option * string;
  check_audit : (ctx -> Ir.func -> unit) option;
  ignore_arrays : string list;
}

(* ------------------------------------------------------------------ *)
(* Built-in passes                                                     *)
(* ------------------------------------------------------------------ *)

let transform ~name run =
  {
    name;
    stage = name;
    span = name;
    key = name;
    shape = Transform;
    run =
      (fun _ _ f ->
        let g, note = run f in
        (g, None, note));
    check_audit = None;
    ignore_arrays = [];
  }

let construct ?(pruning = Ssa.Construct.Pruned) ?(fold_copies = true) () =
  {
    name = "construct";
    stage = "ssa";
    span = "construct";
    key =
      (let p =
         match pruning with
         | Ssa.Construct.Pruned -> "pruned"
         | Ssa.Construct.Semi_pruned -> "semi-pruned"
         | Ssa.Construct.Minimal -> "minimal"
       in
       "construct:" ^ p ^ if fold_copies then "" else "+nofold");
    shape = Construct;
    run =
      (fun ctx facts f ->
        let ssa, s, tree =
          Ssa.Construct.run_facts ~pruning ~fold_copies ?obs:ctx.obs
            (Analysis.Facts.or_build facts f)
            f
        in
        ( ssa,
          Some tree,
          Printf.sprintf "%d phis inserted, %d copies folded" s.phis_inserted
            s.copies_folded ));
    check_audit = None;
    ignore_arrays = [];
  }

let copy_prop =
  transform ~name:"copy-prop" (fun f ->
      let g, s = Ssa.Simplify.propagate f in
      ( g,
        Printf.sprintf "%d copies deleted (%d constants), %d phis collapsed"
          s.copies_propagated s.consts_propagated s.phis_collapsed ))

let simplify =
  transform ~name:"simplify" (fun f ->
      let g, s = Ssa.Simplify.run f in
      ( g,
        Printf.sprintf
          "%d folded, %d identities, %d copies propagated, %d phis collapsed"
          s.folded s.identities s.copies_propagated s.phis_collapsed ))

let dce =
  transform ~name:"dce" (fun f ->
      let g, s = Ssa.Dce.run f in
      ( g,
        Printf.sprintf "%d instructions and %d phis removed" s.removed_instrs
          s.removed_phis ))

let coalesce ?(options = Core.Coalesce.default_options) () =
  {
    name = "coalesce";
    stage = "coalesce";
    span = "convert";
    key =
      (let flags =
         (if options.use_filters then [] else [ "no-filters" ])
         @ if options.victim_heuristic then [] else [ "no-victim" ]
       in
       match flags with
       | [] -> "coalesce"
       | fs -> "coalesce:" ^ String.concat "+" fs);
    shape = Conversion;
    run =
      (fun ctx facts f ->
        let g, s =
          Core.Coalesce.run ~options ?scratch:ctx.scratch ?facts ?obs:ctx.obs f
        in
        ( g,
          None,
          Printf.sprintf
            "%d classes (%d members), %d copies inserted, %d filter \
             refusals, %d forest and %d local detaches"
            s.classes s.class_members s.copies_inserted s.filter_refusals
            s.forest_detached s.local_detached ));
    check_audit =
      Some (fun _ pre -> Check.interference_audit_exn ~options pre);
    ignore_arrays = [];
  }

(* The instantiating routes split from the facts they are handed: the
   split function's CFG is updated, not rebuilt, and serves the
   instantiation and, through it, every round of the graph coalescer. The
   tree is carried through the split only when [tree] says a consumer
   needs it (the graph coalescer's loop nesting). *)
let split_critical_edges ~tree ctx facts f =
  let facts = Analysis.Facts.or_build facts f in
  Analysis.Facts.split_critical_edges ?obs:ctx.obs
    (if tree then facts else { facts with dom = None })
    f

let standard =
  {
    name = "standard";
    stage = "standard";
    span = "convert";
    key = "standard";
    shape = Conversion;
    run =
      (fun ctx facts f ->
        let split, facts = split_critical_edges ~tree:false ctx facts f in
        let g, s = Ssa.Destruct_naive.run ~cfg:facts.cfg ?obs:ctx.obs split in
        ( g,
          None,
          Printf.sprintf "%d copies inserted (%d cycle temps)" s.copies_inserted
            s.temps_inserted ));
    check_audit = None;
    ignore_arrays = [];
  }

let sreedhar_i =
  {
    name = "sreedhar-i";
    stage = "sreedhar-i";
    span = "convert";
    key = "sreedhar-i";
    shape = Conversion;
    run =
      (fun ctx _ f ->
        let g, s = Baseline.Sreedhar.run f in
        Option.iter
          (fun o ->
            Obs.add o Obs.Copies_inserted s.copies_inserted;
            Obs.add o Obs.Sreedhar_names_introduced s.names_introduced)
          ctx.obs;
        ( g,
          None,
          Printf.sprintf "%d copies inserted, %d names introduced"
            s.copies_inserted s.names_introduced ));
    check_audit = None;
    ignore_arrays = [];
  }

let graph variant =
  let name, stage =
    match variant with
    | Baseline.Ig_coalesce.Briggs -> ("briggs", "briggs")
    | Baseline.Ig_coalesce.Briggs_star -> ("briggs-star", "briggs*")
  in
  {
    name;
    stage;
    span = "convert";
    key = name;
    shape = Conversion;
    run =
      (fun ctx facts f ->
        let split, facts = split_critical_edges ~tree:true ctx facts f in
        let inst = Ssa.Destruct_naive.run_exn ~cfg:facts.cfg ?obs:ctx.obs split in
        let g, s = Baseline.Ig_coalesce.run ~facts ~variant inst in
        Option.iter
          (fun o ->
            Obs.add o Obs.Igraph_rounds s.rounds;
            Obs.add o Obs.Igraph_coalesced s.coalesced;
            Obs.add o Obs.Copies_eliminated s.coalesced)
          ctx.obs;
        ( g,
          None,
          Printf.sprintf "%d rounds, %d coalesced, %d copies remain" s.rounds
            s.coalesced s.copies_remaining ));
    check_audit = None;
    ignore_arrays = [];
  }

let regalloc ~registers =
  {
    name = "regalloc";
    stage = "regalloc";
    span = "regalloc";
    key = Printf.sprintf "regalloc:%d" registers;
    shape = Finish;
    run =
      (fun _ facts f ->
        let r =
          Regalloc.run ?facts
            ~options:{ Regalloc.default_options with registers }
            f
        in
        ( r.func,
          None,
          Printf.sprintf
            "%d colors, %d spilled ranges (%d loads, %d stores), %d rounds"
            r.stats.colors_used r.stats.spilled_ranges r.stats.spill_loads
            r.stats.spill_stores r.stats.rounds ));
    check_audit = None;
    ignore_arrays = [ Regalloc.spill_array ];
  }

(* ------------------------------------------------------------------ *)
(* Pipelines: shape checking                                           *)
(* ------------------------------------------------------------------ *)

module Pipeline = struct
  type nonrec t = t list

  let fingerprint passes =
    String.concat "," (List.map (fun p -> p.key) passes)

  let conversion_names = "standard|coalesce|briggs|briggs-star|sreedhar-i"

  let validate passes =
    match passes with
    | [] -> Error "empty pipeline: nothing to run"
    | first :: rest -> (
      if first.shape <> Construct then
        Error
          (Printf.sprintf
             "pipeline must begin with a construction pass (e.g. \
              'construct:pruned'), not '%s'"
             first.name)
      else
        (* After the head: transforms, then one conversion, then finishes. *)
        let rec body = function
          | [] ->
            Error
              (Printf.sprintf
                 "pipeline never leaves SSA: end it with a conversion route \
                  (%s)"
                 conversion_names)
          | p :: ps -> (
            match p.shape with
            | Transform -> body ps
            | Conversion -> tail ps
            | Construct ->
              Error
                (Printf.sprintf "'%s' can only appear first in a pipeline"
                   p.name)
            | Finish ->
              Error
                (Printf.sprintf
                   "'%s' runs on converted (phi-free) code: put it after a \
                    conversion route (%s)"
                   p.name conversion_names))
        and tail = function
          | [] -> Ok ()
          | p :: ps -> (
            match p.shape with
            | Finish -> tail ps
            | Construct | Transform | Conversion ->
              Error
                (Printf.sprintf
                   "'%s' cannot follow the conversion: only finishing passes \
                    (e.g. 'regalloc:8') may"
                   p.name))
        in
        body rest)
end

(* ------------------------------------------------------------------ *)
(* The runner: one middleware around every pass                        *)
(* ------------------------------------------------------------------ *)

type stage = {
  name : string;
  func : Ir.func;
  note : string;
}

type report = {
  input : Ir.func;
  output : Ir.func;
  stages : stage list;
}

(* The facts each pass is handed come from the validator that has just
   checked that exact function value: the input's verdict hands its CFG
   and liveness to the construction, each SSA validator its CFG and
   dominator tree to the pass after it, each output verdict its CFG to the
   finishing pass after it. A pass may offer a tree of its own
   (construction does) with the graph it was solved over; the SSA
   validator takes it only when its own CFG of the output equals that
   graph, and otherwise the tree the input facts carried is the candidate,
   under the same test. The input's and the outputs' verdicts are
   [Analysis.Facts.checked]: structure, then strictness from a liveness
   solve, and the definite-assignment solve only on a failed verdict. An
   input with a φ goes to the full validator instead; outputs of those
   shapes are φ-free. This runner owns each liveness it obtains: the
   input's goes back to the arena when the pass it was handed to returns,
   an output's right after the verdict. Facts stay local to this run. *)
let run ?(check = false) ?scratch ?obs passes input =
  (match Pipeline.validate passes with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pass.run: " ^ msg));
  (* The input contract (the paper's Section 2): a strict, φ-free CFG.
     Breaking it is the caller's error, not a compiler fault. *)
  let input_facts =
    let refuse errs = raise (Ir.Validate.Invalid (Ir.Validate.render errs)) in
    match
      Array.find_opt
        (fun (b : Ir.block) -> b.phis <> [])
        (input : Ir.func).blocks
    with
    | Some b -> (
      (* With a φ the liveness verdict may differ from definite
         assignment's, so the validator decides before the φ is refused. *)
      match Ir.Validate.run_cfg ?obs input with
      | Error errs -> refuse errs
      | Ok _ ->
        raise
          (Ir.Validate.Invalid
             (Printf.sprintf
                "%s/b%d: phi-node in the input; a pipeline takes a phi-free \
                 CFG"
                input.name b.label)))
    | None -> (
      match Analysis.Facts.checked ?obs input with
      | Ok facts -> facts
      | Error errs -> refuse errs)
  in
  let ctx = { input; scratch; obs; check } in
  let span name f =
    match obs with Some o -> Obs.span o name f | None -> f ()
  in
  let stages = ref [] in
  let audits = ref [] in
  let ignore_arrays = ref [] in
  let run_pass (cur, facts) p =
    let g, offered, note = span p.span (fun () -> p.run ctx (Some facts) cur) in
    Analysis.Facts.release facts;
    (* The producing pass declares its output contract; the middleware
       holds it to it before anything downstream consumes the result. A
       breach is a compiler fault, named after the pass. *)
    let checked =
      match p.shape with
      | Construct | Transform ->
        let candidate = match offered with Some _ -> offered | None -> Some facts in
        Ssa.Ssa_validate.run_facts ?candidate g
      | Conversion | Finish ->
        Result.map
          (fun (facts : Analysis.Facts.t) ->
            Analysis.Facts.release facts;
            { facts with live = None })
          (Analysis.Facts.checked ?obs g)
    in
    let facts =
      match checked with
      | Ok facts -> facts
      | Error errs ->
        failwith
          (Printf.sprintf "pass '%s' produced invalid IR:\n%s" p.name
             (Ir.Validate.render errs))
    in
    stages := { name = p.stage; func = g; note } :: !stages;
    ignore_arrays := !ignore_arrays @ p.ignore_arrays;
    (if check then
       match p.check_audit with
       | Some audit -> audits := (fun () -> audit ctx cur) :: !audits
       | None -> ());
    (g, facts)
  in
  let output, _ = List.fold_left run_pass (input, input_facts) passes in
  if check then
    span "check" (fun () ->
        List.iter (fun audit -> audit ()) (List.rev !audits);
        Check.equiv_exn ~ignore_arrays:!ignore_arrays ~reference:input output);
  { input; output; stages = List.rev !stages }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type entry = {
    name : string;
    doc : string;
    arg : string option;
    build : string option -> (t, string) result;
  }

  let table : (string, entry) Hashtbl.t = Hashtbl.create 16

  let register e =
    if Hashtbl.mem table e.name then
      invalid_arg ("Pass.Registry.register: duplicate pass name " ^ e.name);
    Hashtbl.add table e.name e

  let find name = Hashtbl.find_opt table name

  let names () =
    Hashtbl.fold (fun k _ acc -> k :: acc) table []
    |> List.sort compare

  let all () =
    List.filter_map find (names ())

  (* Classic Levenshtein, small strings only. *)
  let edit_distance a b =
    let la = String.length a and lb = String.length b in
    let row = Array.init (lb + 1) Fun.id in
    for i = 1 to la do
      let prev_diag = ref row.(0) in
      row.(0) <- i;
      for j = 1 to lb do
        let up = row.(j) in
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        row.(j) <- min (min (up + 1) (row.(j - 1) + 1)) (!prev_diag + cost);
        prev_diag := up
      done
    done;
    row.(lb)

  let suggest name ~candidates =
    let scored =
      List.map (fun c -> (edit_distance name c, c)) candidates
      |> List.sort compare
    in
    match scored with
    | (d, c) :: _ when d <= max 2 (String.length name / 3) -> Some c
    | _ -> None
end

let no_arg name build = function
  | None -> Ok (build ())
  | Some a ->
    Error (Printf.sprintf "pass '%s' takes no argument (got ':%s')" name a)

(* "pruned+nofold" → options; parts may come in either order. *)
let parse_construct_arg = function
  | None -> Ok (construct ())
  | Some a ->
    let parts = String.split_on_char '+' a in
    let rec go pruning fold_copies = function
      | [] -> Ok (construct ?pruning ~fold_copies ())
      | "pruned" :: rest when pruning = None ->
        go (Some Ssa.Construct.Pruned) fold_copies rest
      | "semi-pruned" :: rest when pruning = None ->
        go (Some Ssa.Construct.Semi_pruned) fold_copies rest
      | "minimal" :: rest when pruning = None ->
        go (Some Ssa.Construct.Minimal) fold_copies rest
      | "nofold" :: rest when fold_copies ->
        go pruning false rest
      | part :: _ ->
        Error
          (Printf.sprintf
             "construct: bad argument '%s' in '%s' (want \
              pruned|semi-pruned|minimal, optionally +nofold)"
             part a)
    in
    go None true parts

let parse_coalesce_arg = function
  | None -> Ok (coalesce ())
  | Some a ->
    let parts = String.split_on_char '+' a in
    let rec go (options : Core.Coalesce.options) = function
      | [] -> Ok (coalesce ~options ())
      | "no-filters" :: rest -> go { options with use_filters = false } rest
      | "no-victim" :: rest -> go { options with victim_heuristic = false } rest
      | part :: _ ->
        Error
          (Printf.sprintf
             "coalesce: bad argument '%s' in '%s' (want no-filters and/or \
              no-victim, joined with +)"
             part a)
    in
    go Core.Coalesce.default_options parts

let parse_regalloc_arg = function
  | None -> Error "regalloc needs a register count, e.g. 'regalloc:8'"
  | Some a -> (
    (* The allocator needs two registers (it raises on fewer); a spec
       that asks for fewer is refused here, as a spec error. *)
    match int_of_string_opt a with
    | Some k when k >= 2 -> Ok (regalloc ~registers:k)
    | Some _ ->
      Error (Printf.sprintf "regalloc: '%s' registers; the allocator needs at least 2" a)
    | None ->
      Error
        (Printf.sprintf "regalloc: '%s' is not a positive register count" a))

let () =
  List.iter Registry.register
    [
      {
        Registry.name = "construct";
        doc = "SSA construction (Cytron et al.)";
        arg = Some "pruned|semi-pruned|minimal[+nofold]";
        build = parse_construct_arg;
      };
      {
        name = "copy-prop";
        doc = "SSA copy/constant propagation via value-table rewriting";
        arg = None;
        build = no_arg "copy-prop" (fun () -> copy_prop);
      };
      {
        name = "simplify";
        doc = "constant folding, identities, copy propagation, phi collapse";
        arg = None;
        build = no_arg "simplify" (fun () -> simplify);
      };
      {
        name = "dce";
        doc = "dead-code elimination on SSA def-use chains";
        arg = None;
        build = no_arg "dce" (fun () -> dce);
      };
      {
        name = "coalesce";
        doc = "the paper's graph-free coalescing conversion";
        arg = Some "no-filters|no-victim[+...]";
        build = parse_coalesce_arg;
      };
      {
        name = "standard";
        doc = "naive phi instantiation, no coalescing";
        arg = None;
        build = no_arg "standard" (fun () -> standard);
      };
      {
        name = "briggs";
        doc = "naive instantiation + full interference-graph coalescing";
        arg = None;
        build = no_arg "briggs" (fun () -> graph Baseline.Ig_coalesce.Briggs);
      };
      {
        name = "briggs-star";
        doc = "naive instantiation + copy-restricted-graph coalescing";
        arg = None;
        build =
          no_arg "briggs-star" (fun () ->
              graph Baseline.Ig_coalesce.Briggs_star);
      };
      {
        name = "sreedhar-i";
        doc = "Sreedhar et al. Method I instantiation";
        arg = None;
        build = no_arg "sreedhar-i" (fun () -> sreedhar_i);
      };
      {
        name = "regalloc";
        doc = "Chaitin/Briggs register allocation to K colors";
        arg = Some "K";
        build = parse_regalloc_arg;
      };
    ]

let ssa_pass ~name ?(doc = "custom SSA pass") run =
  let p = transform ~name run in
  Registry.register
    { Registry.name; doc; arg = None; build = no_arg name (fun () -> p) };
  p

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  let grammar =
    "A pipeline spec is a comma-separated list of registered passes, each \
     'name' or 'name:arg' — a construction pass first, SSA transforms in \
     any order, exactly one conversion route, then finishing passes. \
     Example: construct:pruned,copy-prop,simplify,dce,coalesce,regalloc:8"

  let registered_listing () =
    Registry.all ()
    |> List.map (fun (e : Registry.entry) ->
           match e.arg with
           | None -> Printf.sprintf "  %-14s %s" e.name e.doc
           | Some a -> Printf.sprintf "  %-14s %s" (e.name ^ ":" ^ a) e.doc)
    |> String.concat "\n"

  let unknown_pass name =
    let hint =
      match Registry.suggest name ~candidates:(Registry.names ()) with
      | Some c -> Printf.sprintf " — did you mean '%s'?" c
      | None -> ""
    in
    Error
      (Printf.sprintf "unknown pass '%s'%s\nregistered passes:\n%s" name hint
         (registered_listing ()))

  let parse_item item =
    let name, arg =
      match String.index_opt item ':' with
      | None -> (item, None)
      | Some i ->
        ( String.sub item 0 i,
          Some (String.sub item (i + 1) (String.length item - i - 1)) )
    in
    match Registry.find name with
    | None -> unknown_pass name
    | Some e -> e.build arg

  let parse spec =
    let items =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if items = [] then Error "empty pipeline spec"
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
          match parse_item item with
          | Ok p -> go (p :: acc) rest
          | Error _ as e -> e)
      in
      match go [] items with
      | Error _ as e -> e
      | Ok passes -> (
        match Pipeline.validate passes with
        | Ok () -> Ok passes
        | Error msg -> Error ("bad pipeline: " ^ msg))

  let parse_exn spec =
    match parse spec with Ok p -> p | Error msg -> invalid_arg msg

  let to_string passes = Pipeline.fingerprint passes
end
