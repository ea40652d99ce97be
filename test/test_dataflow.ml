(* The per-block dataflow sets of the compile path: the liveness solver's
   rows against the Hashtbl-shaped reference solver, the solver's worklist
   pops on the suite's large routines, and the validators' allocation on a
   valid large function. *)

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
  for l = 0 to Ir.num_blocks f - 1 do
    let row set mem elems =
      let s = set live l in
      Bitset.elements s = elems
      && Bitset.cardinal s = List.length elems
      && List.for_all (fun r -> mem live l r = List.mem r elems)
           (List.init f.nregs Fun.id)
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
  Option.iter (fun scratch -> Liveness.release scratch live) scratch;
  !ok

let check_both name (f : Ir.func) =
  checkb (name ^ " (non-SSA)") true (same_liveness f (Ir.Cfg.of_func f));
  let ssa, cfg = Ir.Edge_split.run_cfg (Ssa.Construct.run_exn f) in
  checkb (name ^ " (split SSA)") true (same_liveness ssa cfg)

let test_vs_ref_suites () =
  List.iter
    (fun (e : Workloads.Suite.entry) -> check_both e.name e.func)
    (Workloads.Suite.kernels () @ Workloads.Suite.adversarial ()
    @ Workloads.Suite.generated ~sizes:[ 20; 60 ] ~seeds:[ 4; 5; 6 ] ())

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

let suite =
  [
    Alcotest.test_case "liveness rows = reference (suites, both forms)" `Quick
      test_vs_ref_suites;
    Alcotest.test_case "liveness rows = reference (row tails, unreachable)"
      `Quick test_vs_ref_row_tails;
    Alcotest.test_case "liveness rows = reference (shared arena)" `Quick
      test_vs_ref_shared_arena;
    Alcotest.test_case "liveness pops pinned on large routines" `Quick
      test_large_pops;
    Alcotest.test_case "validators allocate nothing per instruction" `Quick
      test_validators_allocation;
  ]
