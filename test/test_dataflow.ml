(* The per-block dataflow sets of the compile path: the liveness solver's
   rows against the Hashtbl-shaped reference solver, [Ir.Validate]'s
   definite-assignment verdicts against the full-width reference solver,
   the solver's worklist pops on the suite's large routines, and the
   validators' allocation on a valid large function. *)

open Helpers
module Liveness = Analysis.Liveness
module Liveness_ref = Analysis.Liveness_ref
module Bitset = Support.Bitset

(* Every block, reachable or not: both solvers push a block whose
   successor's live-in grew, so an unreachable predecessor gets sets too.
   Rows are compared as element lists, by membership for every register
   (the row-level test), and by cardinality (no stray bit in a row's tail
   byte). *)
let same_liveness ?scratch (f : Ir.func) cfg =
  let live =
    match scratch with
    | Some scratch -> Liveness.compute_into ~scratch f cfg
    | None -> Liveness.compute f cfg
  in
  let href = Liveness_ref.compute f cfg in
  let ok = ref true in
  let member = Array.make f.nregs false in
  for l = 0 to Ir.num_blocks f - 1 do
    let row set mem elems =
      let s = set live l in
      List.iter (fun r -> member.(r) <- true) elems;
      let same = ref true in
      for r = 0 to f.nregs - 1 do
        if mem live l r <> member.(r) then same := false
      done;
      List.iter (fun r -> member.(r) <- false) elems;
      Bitset.elements s = elems && Bitset.cardinal s = List.length elems && !same
    in
    if
      not
        (row Liveness.live_in Liveness.live_in_mem (Liveness_ref.live_in href l)
        && row Liveness.live_out Liveness.live_out_mem
             (Liveness_ref.live_out href l))
    then ok := false
  done;
  checki (f.name ^ ": memory_bytes") (2 * Ir.num_blocks f * ((f.nregs + 7) / 8))
    (Liveness.memory_bytes live);
  checkb (f.name ^ ": width") true (Liveness.width live <= f.nregs);
  Option.iter (fun scratch -> Liveness.release scratch live) scratch;
  !ok

let check_both name (f : Ir.func) =
  checkb (name ^ " (non-SSA)") true (same_liveness f (Ir.Cfg.of_func f));
  let ssa, cfg = Ir.Edge_split.run_cfg (Ssa.Construct.run_exn f) in
  checkb (name ^ " (split SSA)") true (same_liveness ssa cfg)

let test_vs_ref_suites () =
  List.iter
    (fun (e : Workloads.Suite.entry) -> check_both e.name e.func)
    (Workloads.Suite.kernels () @ Workloads.Suite.large ()
    @ Workloads.Suite.adversarial ()
    @ Workloads.Suite.generated ~sizes:[ 20; 60 ] ~seeds:[ 4; 5; 6 ] ())

(* Random raw CFGs for both dataflow problems. Parameters and entry
   definitions cover only some registers, so some uses are not definitely
   assigned and some names are live into the entry. Jumps to any non-entry
   block leave blocks unreachable and make irreducible loops. φs sit at
   reachable joins, keyed by the block's predecessors, and at unreachable
   blocks, keyed by any labels. Loads and stores name one array. *)
let raw_cfg rand ~blocks:nblocks ~regs:nregs =
  let b = Ir.Builder.create "raw" in
  let regs =
    Array.init nregs (fun i ->
        let name = Printf.sprintf "v%d" i in
        if rand 5 = 0 then Ir.Builder.add_param ~name b
        else Ir.Builder.fresh_reg ~name b)
  in
  let labels = Array.init nblocks (fun _ -> Ir.Builder.add_block b) in
  let operand () =
    if nregs = 0 || rand 5 = 0 then Ir.Const (Int (rand 9))
    else Ir.Reg regs.(rand nregs)
  in
  let dst () = regs.(rand nregs) in
  Array.iteri
    (fun i l ->
      let push instr = Ir.Builder.push b l instr in
      if i = 0 then
        Array.iter
          (fun r -> if rand 2 = 0 then push (Copy { dst = r; src = Const (Int 0) }))
          regs;
      if nregs > 0 then
        for _ = 1 to rand 5 do
          match rand 5 with
          | 0 -> push (Copy { dst = dst (); src = operand () })
          | 1 -> push (Binop { op = Add; dst = dst (); l = operand (); r = operand () })
          | 2 -> push (Unop { op = Neg; dst = dst (); src = operand () })
          | 3 -> push (Load { dst = dst (); arr = "a"; idx = operand () })
          | _ -> push (Store { arr = "a"; idx = operand (); src = operand () })
        done;
      let target () = labels.(1 + rand (nblocks - 1)) in
      let t =
        if nblocks = 1 then Ir.Return (Some (operand ()))
        else if i = 0 then Ir.Jump labels.(1)
        else
          match rand 6 with
          | 0 -> Ir.Return (Some (operand ()))
          | 1 -> Ir.Return None
          | 2 | 3 -> Ir.Jump (target ())
          | _ -> Ir.Branch { cond = operand (); if_true = target (); if_false = target () }
      in
      Ir.Builder.terminate b l t)
    labels;
  let f = Ir.Builder.finish b in
  if nregs = 0 then f
  else begin
    let cfg = Ir.Cfg.of_func f in
    let phis l =
      let keys =
        if Ir.Cfg.reachable cfg l then Ir.Cfg.preds_list cfg l
        else List.sort_uniq compare (List.init (1 + rand 2) (fun _ -> rand nblocks))
      in
      if l = f.entry || keys = [] || rand 2 = 0 then []
      else
        List.init (1 + rand 2) (fun _ ->
            { Ir.dst = dst (); args = List.map (fun p -> (p, operand ())) keys })
    in
    Ir.with_blocks f
      (Array.map (fun (blk : Ir.block) -> { blk with phis = phis blk.label }) f.blocks)
  end

(* A retreating edge (to a block that finishes later in the depth-first
   search) whose target does not dominate its source. *)
let irreducible (f : Ir.func) cfg =
  let dom = Analysis.Dominance.compute f cfg in
  let po = Ir.Cfg.postorder_index cfg in
  Array.exists
    (fun u ->
      List.exists
        (fun v -> po v >= po u && not (Analysis.Dominance.dominates dom v u))
        (Ir.Cfg.succs_list cfg u))
    (Ir.Cfg.postorder cfg)

(* Register counts of 0, 1, 7 mod 8 and multiples of 64, ten seeds each. *)
let raw_cfgs =
  lazy
    (List.concat_map
       (fun regs ->
         List.init 10 (fun seed ->
             let rand = make_rand ((regs * 7919) + seed) in
             raw_cfg rand ~blocks:(2 + rand 11) ~regs))
       [ 0; 1; 2; 7; 8; 9; 15; 23; 31; 63; 64; 65; 71; 127; 128; 129; 191; 192;
         255; 256 ])

let test_vs_ref_raw () =
  let unreachable = ref 0 and irreducibles = ref 0 in
  List.iteri
    (fun i (f : Ir.func) ->
      let cfg = Ir.Cfg.of_func f in
      for l = 0 to Ir.num_blocks f - 1 do
        if not (Ir.Cfg.reachable cfg l) then incr unreachable
      done;
      if irreducible f cfg then incr irreducibles;
      checkb
        (Printf.sprintf "raw %d (nregs=%d)" i f.nregs)
        true (same_liveness f cfg))
    (Lazy.force raw_cfgs);
  checki "raw CFGs" 200 (List.length (Lazy.force raw_cfgs));
  checkb "some blocks are unreachable" true (!unreachable > 0);
  checkb "some CFGs are irreducible" true (!irreducibles > 0)

(* Random raw CFGs: back edges, unreachable blocks, and register counts on
   each side of a byte and a 64-bit word boundary. *)
let test_vs_ref_row_tails () =
  let unreachable = ref 0 in
  List.iter
    (fun regs ->
      for seed = 0 to 11 do
        let f = random_cfg (make_rand ((regs * 131) + seed)) ~blocks:9 ~regs in
        let cfg = Ir.Cfg.of_func f in
        for l = 0 to Ir.num_blocks f - 1 do
          if not (Ir.Cfg.reachable cfg l) then incr unreachable
        done;
        checki "register count" regs f.nregs;
        checkb
          (Printf.sprintf "regs=%d seed=%d" regs seed)
          true (same_liveness f cfg)
      done)
    [ 1; 7; 8; 9; 15; 63; 64; 65; 71; 127; 128; 129 ];
  checkb "some blocks are unreachable" true (!unreachable > 0)

(* The same comparison through one shared arena, largest matrices first:
   each smaller function then gets a pooled buffer longer than it needs,
   still holding another function's rows. *)
let test_vs_ref_shared_arena () =
  let cases =
    List.concat_map
      (fun (e : Workloads.Suite.entry) ->
        let ssa, cfg = Ir.Edge_split.run_cfg (Ssa.Construct.run_exn e.func) in
        [ (e.name ^ " (non-SSA)", e.func, Ir.Cfg.of_func e.func);
          (e.name ^ " (split SSA)", ssa, cfg) ])
      (Workloads.Suite.kernels () @ Workloads.Suite.adversarial ()
      @ Workloads.Suite.generated ~sizes:[ 20; 60 ] ~seeds:[ 4; 5; 6 ] ())
    @ List.concat_map
        (fun regs ->
          List.init 4 (fun seed ->
              let f =
                random_cfg (make_rand ((regs * 137) + seed)) ~blocks:9 ~regs
              in
              (Printf.sprintf "regs=%d seed=%d" regs seed, f, Ir.Cfg.of_func f)))
        [ 1; 7; 9; 63; 65; 129 ]
  in
  let size (_, (f : Ir.func), _) = Ir.num_blocks f * ((f.nregs + 7) / 8) in
  let cases = List.stable_sort (fun a b -> compare (size b) (size a)) cases in
  let scratch = Support.Scratch.create () in
  List.iter
    (fun (name, f, cfg) ->
      checkb (name ^ " (shared arena)") true (same_liveness ~scratch f cfg))
    cases;
  checkb "pooled buffers were reused" true
    ((Support.Scratch.stats scratch).bitset_hits > 0)

(* [Ir.Validate.run]'s errors against the full-width reference solver's,
   message for message and in order. *)
let show_errors errs = List.map (Format.asprintf "%a" Ir.Validate.pp_error) errs

let same_verdict name f =
  Alcotest.(check (list string)) name
    (show_errors (Validate_ref.run f))
    (show_errors (Ir.Validate.run f))

let suite_funcs () =
  List.map
    (fun (e : Workloads.Suite.entry) -> (e.name, e.func))
    (Workloads.Suite.kernels () @ Workloads.Suite.large ()
    @ Workloads.Suite.adversarial ())

(* Mutants of a valid function, each breaking strictness in one place:
   a definition dropped, the definition of a φ argument dropped, and a use
   moved above the definition it reads in the same block. At most [k] of
   each kind, spread over the function. *)
let drop_instr (f : Ir.func) l j =
  Ir.with_blocks f
    (Array.map
       (fun (b : Ir.block) ->
         if b.label <> l then b
         else { b with body = List.filteri (fun i _ -> i <> j) b.body })
       f.blocks)

let drop_def (f : Ir.func) r =
  Ir.with_blocks f
    (Array.map
       (fun (b : Ir.block) ->
         {
           b with
           phis = List.filter (fun (p : Ir.phi) -> p.dst <> r) b.phis;
           body = List.filter (fun i -> Ir.def i <> Some r) b.body;
         })
       f.blocks)

let spread k xs =
  let n = List.length xs in
  if n <= k then xs else List.filteri (fun i _ -> i * k / n <> (i + 1) * k / n) xs

let mutants ?(k = 6) (f : Ir.func) =
  let defs =
    List.concat_map
      (fun (b : Ir.block) ->
        List.concat
          (List.mapi
             (fun j i -> if Ir.def i = None then [] else [ (b.label, j) ])
             b.body))
      (Array.to_list f.blocks)
  in
  let phi_args =
    List.sort_uniq compare
      (List.concat_map
         (fun (b : Ir.block) ->
           List.concat_map
             (fun (p : Ir.phi) ->
               List.filter_map
                 (function
                   | _, Ir.Reg r when not (List.mem r f.params) -> Some r
                   | _ -> None)
                 p.args)
             b.phis)
         (Array.to_list f.blocks))
  in
  (* (block, j): instruction [j] reads a register an earlier instruction
     of its block defines. *)
  let hoists =
    List.concat_map
      (fun (b : Ir.block) ->
        let body = Array.of_list b.body in
        List.concat
          (List.init (Array.length body) (fun j ->
               let earlier = List.filter_map Ir.def (Array.to_list (Array.sub body 0 j)) in
               if List.exists (fun u -> List.mem u earlier) (Ir.uses body.(j)) then
                 [ (b.label, j) ]
               else [])))
      (Array.to_list f.blocks)
  in
  let hoist (l, j) =
    Ir.with_blocks f
      (Array.map
         (fun (b : Ir.block) ->
           if b.label <> l then b
           else
             let moved = List.nth b.body j in
             { b with body = moved :: List.filteri (fun i _ -> i <> j) b.body })
         f.blocks)
  in
  List.map (fun (l, j) -> ("drop def", drop_instr f l j)) (spread k defs)
  @ List.map (fun r -> ("drop phi arg def", drop_def f r)) (spread k phi_args)
  @ List.map (fun lj -> ("use above def", hoist lj)) (spread k hoists)

let test_definite_assignment_suites () =
  let errors = ref 0 and mutated = ref 0 in
  List.iter
    (fun (name, (f : Ir.func)) ->
      let ssa = Ssa.Construct.run_exn f in
      List.iter
        (fun (form, g) ->
          same_verdict (Printf.sprintf "%s (%s)" name form) g;
          List.iter
            (fun (kind, m) ->
              incr mutated;
              if Ir.Validate.run m <> [] then incr errors;
              same_verdict (Printf.sprintf "%s (%s, %s)" name form kind) m)
            (mutants g))
        [ ("input", f); ("SSA", ssa) ])
    (suite_funcs ());
  checkb "mutants were made" true (!mutated > 100);
  checkb "most mutants are rejected" true (2 * !errors > !mutated)

let test_definite_assignment_raw () =
  let rejected = ref 0 in
  List.iteri
    (fun i (f : Ir.func) ->
      if Ir.Validate.run f <> [] then incr rejected;
      same_verdict (Printf.sprintf "raw %d (nregs=%d)" i f.nregs) f;
      List.iter
        (fun (kind, m) ->
          same_verdict (Printf.sprintf "raw %d (nregs=%d, %s)" i f.nregs kind) m)
        (mutants ~k:2 f))
    (Lazy.force raw_cfgs);
  checkb "some raw CFGs are rejected" true (!rejected > 0);
  checkb "some raw CFGs are accepted" true (!rejected < 200)

(* The worklist pops of both liveness runs of a New compile (non-SSA input
   for pruned construction, split SSA for the coalescer) on the large
   routines. Same algorithm, same visiting order: these must not move when
   the set representation changes. *)
let large_pops =
  [
    ("big300", 587, 611);
    ("big600", 1107, 1158);
    ("big1200", 1693, 1779);
    ("num250", 9, 7);
    ("num500", 9, 7);
  ]

let pops f cfg =
  let obs = Obs.create () in
  ignore (Liveness.compute ~obs f cfg);
  Obs.get obs Obs.Liveness_worklist_pops

let test_large_pops () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let raw = pops e.func (Ir.Cfg.of_func e.func) in
      let ssa, cfg = Ir.Edge_split.run_cfg (Ssa.Construct.run_exn e.func) in
      let split = pops ssa cfg in
      match List.find_opt (fun (n, _, _) -> n = e.name) large_pops with
      | None -> Alcotest.failf "no pinned pops for %s" e.name
      | Some (_, r, s) ->
        checki (e.name ^ " pops (non-SSA)") r raw;
        checki (e.name ^ " pops (split SSA)") s split)
    (Workloads.Suite.large ())

(* Minor-heap words of the second of two runs (the first warms the
   domain's scratch arena, which serves [Ir.Validate]'s matrices). *)
let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* On valid input the validators allocate their CFG, dominators and a few
   block- or register-indexed arrays, and nothing per instruction. Bounds
   are twice the measured words: big300 has 343 blocks and ~1.4k
   instructions, num500 has 7 blocks and ~7.3k, so a list, option or
   closure per instruction would break either bound several times over. *)
let validator_bounds =
  [ ("big300", 28_900., 43_920.); ("num500", 1_390., 1_850.) ]

let test_validators_allocation () =
  List.iter
    (fun (name, ir_bound, ssa_bound) ->
      let f =
        (List.find (fun (e : Workloads.Suite.entry) -> e.name = name)
           (Workloads.Suite.large ()))
          .func
      in
      let ssa = Ssa.Construct.run_exn f in
      let ir_words = minor_words (fun () -> Ir.Validate.run f) in
      let ssa_words = minor_words (fun () -> Ssa.Ssa_validate.run ssa) in
      checkb
        (Printf.sprintf "%s: Ir.Validate.run allocates %.0f words, bound %.0f" name
           ir_words ir_bound)
        true (ir_words <= ir_bound);
      checkb
        (Printf.sprintf "%s: Ssa_validate.run allocates %.0f words, bound %.0f"
           name ssa_words ssa_bound)
        true (ssa_words <= ssa_bound))
    validator_bounds

(* Words a warm New compile of big1200 allocates directly in the major
   heap: blocks too large for the minor heap, here the matrices and
   buffers the arena does not keep. A minor collection on each side of the
   compile settles the counters, so the difference of
   [major_words - promoted_words] counts the compile's direct allocations
   only. The median of five compiles. Solves over every register
   allocated 644,768 words here; solves over the names that cross a block
   allocate 227,182, and the bound is 1.25 times that. *)
let direct_major_words f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  s1.major_words -. s1.promoted_words -. (s0.major_words -. s0.promoted_words)

let big1200_direct_bound = 284_000.

let test_big1200_major_heap () =
  let f =
    (List.find (fun (e : Workloads.Suite.entry) -> e.name = "big1200")
       (Workloads.Suite.large ()))
      .func
  in
  let pipeline =
    match Pass.Spec.parse (Harness.Pipelines.spec_of Harness.Pipelines.New) with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  (* The passes draw from the domain's arena; emptied, then warmed on
     big1200 alone, it holds the same buffers whatever ran before. *)
  let scratch = Support.Scratch.domain () in
  Support.Scratch.clear scratch;
  let compile () = ignore (Driver.Pipeline.compile_passes ~scratch pipeline f) in
  compile ();
  compile ();
  let words = List.sort compare (List.init 5 (fun _ -> direct_major_words compile)) in
  let median = List.nth words 2 in
  checkb
    (Printf.sprintf "big1200: %.0f words straight to the major heap, bound %.0f" median
       big1200_direct_bound)
    true (median <= big1200_direct_bound)

let suite =
  [
    Alcotest.test_case "liveness rows = reference (suites, both forms)" `Quick
      test_vs_ref_suites;
    Alcotest.test_case "liveness rows = reference (row tails, unreachable)"
      `Quick test_vs_ref_row_tails;
    Alcotest.test_case "liveness rows = reference (shared arena)" `Quick
      test_vs_ref_shared_arena;
    Alcotest.test_case "liveness rows = reference (200 raw CFGs)" `Quick
      test_vs_ref_raw;
    Alcotest.test_case "definite assignment = reference (suites, mutants)"
      `Quick test_definite_assignment_suites;
    Alcotest.test_case "definite assignment = reference (200 raw CFGs)" `Quick
      test_definite_assignment_raw;
    Alcotest.test_case "liveness pops pinned on large routines" `Quick
      test_large_pops;
    Alcotest.test_case "validators allocate nothing per instruction" `Quick
      test_validators_allocation;
    Alcotest.test_case "big1200 compile: direct major-heap words bounded" `Quick
      test_big1200_major_heap;
  ]
