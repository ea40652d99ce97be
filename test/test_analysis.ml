(* Tests for dominance, liveness and loops, validated against the naive
   reference implementations in Helpers. *)

open Helpers

let test_dominance_loop () =
  let f = counting_loop () in
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  check Alcotest.(option int) "idom entry" None (Analysis.Dominance.idom dom 0);
  check Alcotest.(option int) "idom header" (Some 0) (Analysis.Dominance.idom dom 1);
  check Alcotest.(option int) "idom body" (Some 1) (Analysis.Dominance.idom dom 2);
  check Alcotest.(option int) "idom exit" (Some 1) (Analysis.Dominance.idom dom 3);
  checkb "entry dominates all" true
    (List.for_all (Analysis.Dominance.dominates dom 0) [ 0; 1; 2; 3 ]);
  checkb "body does not dominate exit" false (Analysis.Dominance.dominates dom 2 3);
  checkb "reflexive" true (Analysis.Dominance.dominates dom 2 2);
  checkb "strict not reflexive" false (Analysis.Dominance.strictly_dominates dom 2 2);
  (* Frontier: the loop header is in its own frontier (back edge) and in the
     body's frontier. *)
  checkb "header in body frontier" true (List.mem 1 (Analysis.Dominance.frontier dom 2));
  checkb "header in own frontier" true (List.mem 1 (Analysis.Dominance.frontier dom 1))

let test_preorder_intervals () =
  let f = diamond () in
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let pre = Analysis.Dominance.preorder dom in
  let maxpre = Analysis.Dominance.max_preorder dom in
  checki "entry preorder" 0 (pre 0);
  checki "entry max covers all" 3 (maxpre 0);
  (* Leaves have max = own preorder. *)
  List.iter
    (fun l -> checki "leaf interval" (pre l) (maxpre l))
    [ 1; 2; 3 ];
  (* dom_tree_order is a permutation of reachable blocks in preorder. *)
  let order = Array.to_list (Analysis.Dominance.dom_tree_order dom) in
  checki "order size" 4 (List.length order);
  checkb "order starts at entry" true (List.hd order = 0)

(* [dominates] answers every ordered pair of blocks — unreachable ones
   included, where both sides say false — as the naive dataflow fixpoint
   does. *)
let dominance_matches_naive f =
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let naive = naive_dominators f in
  let blocks = List.init (Ir.num_blocks f) Fun.id in
  List.for_all
    (fun a ->
      List.for_all
        (fun b -> Analysis.Dominance.dominates dom a b = naive a b)
        blocks)
    blocks

(* Property: CHK dominators equal the naive dataflow dominators on random
   CFGs. *)
let prop_dominators =
  QCheck.Test.make ~count:100 ~name:"CHK dominators match naive fixpoint"
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let rand = make_rand (seed + 1) in
      let nblocks = 3 + (extra mod 8) in
      dominance_matches_naive (random_cfg rand ~blocks:nblocks ~regs:4))

(* Property: depth-based ancestor test matches idom chain walking. *)
let prop_preorder_ancestry =
  QCheck.Test.make ~count:100 ~name:"preorder intervals match idom chains"
    QCheck.small_nat
    (fun seed ->
      let rand = make_rand (seed + 13) in
      let f = random_cfg rand ~blocks:8 ~regs:3 in
      let cfg = Ir.Cfg.of_func f in
      let dom = Analysis.Dominance.compute f cfg in
      let rec chain_dominates a b =
        (* walk b's idom chain looking for a *)
        a = b
        ||
        match Analysis.Dominance.idom dom b with
        | None -> false
        | Some p -> chain_dominates a p
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if Ir.Cfg.reachable cfg a && Ir.Cfg.reachable cfg b then
                Analysis.Dominance.dominates dom a b = chain_dominates a b
              else true)
            (List.init 8 Fun.id))
        (List.init 8 Fun.id))

(* Property: the same on raw random CFGs of up to 13 blocks, which include
   irreducible graphs and unreachable blocks. *)
let prop_dominators_raw =
  QCheck.Test.make ~count:200 ~name:"raw CFGs: CHK dominators = naive"
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let rand = make_rand (seed + 3) in
      let nblocks = 2 + (extra mod 12) in
      dominance_matches_naive (random_cfg rand ~blocks:nblocks ~regs:4))

(* Property: the same on SSA'd structured programs — deeper reducible
   nesting than [random_cfg] produces. *)
let prop_dominators_ssa =
  QCheck.Test.make ~count:60 ~name:"SSA programs: CHK dominators = naive"
    QCheck.(pair (int_bound 10_000) (int_range 10 60))
    (fun (seed, size) ->
      dominance_matches_naive
        (Ssa.Construct.run_exn (random_program seed size)))

(* The adversarial workload shapes are where CHK's intersect walks go
   quadratic — make sure its answers stay right there. *)
let test_dominators_on_adversarial () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      checkb (e.name ^ ": CHK = naive") true (dominance_matches_naive e.func))
    (Workloads.Suite.adversarial ())

let test_liveness_loop () =
  let f = counting_loop () in
  let cfg = Ir.Cfg.of_func f in
  let live = Analysis.Liveness.compute f cfg in
  (* n (reg 0) is live throughout the loop; i (reg 1) live around the loop. *)
  checkb "n live into header" true (Analysis.Liveness.live_in_mem live 1 0);
  checkb "i live into header" true (Analysis.Liveness.live_in_mem live 1 1);
  checkb "i live out of body" true (Analysis.Liveness.live_out_mem live 2 1);
  checkb "n dead at exit" false (Analysis.Liveness.live_in_mem live 3 0);
  checkb "cond reg not live into header" false (Analysis.Liveness.live_in_mem live 1 2)

let test_liveness_phi_aware () =
  (* φ arguments must appear in the predecessor's live-out but NOT in the φ
     block's live-in (the Section 3.1 distinction). *)
  let f = virtual_swap_ssa () in
  let cfg = Ir.Cfg.of_func f in
  let live = Analysis.Liveness.compute f cfg in
  let a1 = 1 and b1 = 2 in
  (* join is block 3; left/right are 1 and 2 *)
  checkb "a1 live out of left (flows into phi)" true
    (Analysis.Liveness.live_out_mem live 1 a1);
  checkb "a1 NOT live into join" false (Analysis.Liveness.live_in_mem live 3 a1);
  checkb "b1 NOT live into join" false (Analysis.Liveness.live_in_mem live 3 b1);
  checkb "phi dst not live-in" false (Analysis.Liveness.live_in_mem live 3 3)

(* Property: bit-vector liveness equals the naive list-based fixpoint. *)
let prop_liveness =
  QCheck.Test.make ~count:100 ~name:"liveness matches naive fixpoint"
    QCheck.small_nat
    (fun seed ->
      let rand = make_rand (seed + 7) in
      let f = random_cfg rand ~blocks:7 ~regs:5 in
      let cfg = Ir.Cfg.of_func f in
      let live = Analysis.Liveness.compute f cfg in
      let in_ref, out_ref = naive_liveness f in
      List.for_all
        (fun l ->
          if Ir.Cfg.reachable cfg l then
            Support.Bitset.elements (Analysis.Liveness.live_in live l) = in_ref.(l)
            && Support.Bitset.elements (Analysis.Liveness.live_out live l)
               = out_ref.(l)
          else true)
        (List.init (Ir.num_blocks f) Fun.id))

(* Property: the worklist solver agrees with the naive round-robin fixpoint
   on SSA'd generated programs — unlike [prop_liveness]'s raw random CFGs,
   these carry φ-nodes, so the edge-based φ-argument charging (arguments in
   the predecessor's live-out, targets killed at the block top) is compared
   against the oracle too. The worklist-pop count goes to the recorder, and
   must be at least one pop per reachable block. *)
let prop_liveness_worklist_vs_round_robin =
  QCheck.Test.make ~count:80 ~name:"worklist vs round-robin liveness on SSA"
    QCheck.(pair (int_bound 10_000) (int_range 10 60))
    (fun (seed, size) ->
      let f = random_program seed size in
      let ssa = Ssa.Construct.run_exn f in
      let cfg = Ir.Cfg.of_func ssa in
      let obs = Obs.create () in
      let live = Analysis.Liveness.compute ~obs ssa cfg in
      let in_ref, out_ref = naive_liveness ssa in
      let reachable =
        List.filter
          (Ir.Cfg.reachable cfg)
          (List.init (Ir.num_blocks ssa) Fun.id)
      in
      Obs.get obs Obs.Liveness_worklist_pops >= List.length reachable
      && List.for_all
           (fun l ->
             Support.Bitset.elements (Analysis.Liveness.live_in live l)
             = in_ref.(l)
             && Support.Bitset.elements (Analysis.Liveness.live_out live l)
                = out_ref.(l))
           reachable)

(* Property: the dataflow liveness and the SSA use-chain liveness agree on
   regular SSA programs — two independent implementations, one answer. *)
let prop_liveness_implementations_agree =
  QCheck.Test.make ~count:80 ~name:"dataflow vs use-chain liveness on SSA"
    QCheck.(pair (int_bound 10_000) (int_range 10 60))
    (fun (seed, size) ->
      let f = random_program seed size in
      let ssa = Ssa.Construct.run_exn f in
      let cfg = Ir.Cfg.of_func ssa in
      let a = Analysis.Liveness.compute ssa cfg in
      let b = Liveness_ssa.compute ssa cfg in
      List.for_all
        (fun l ->
          (not (Ir.Cfg.reachable cfg l))
          || (Support.Bitset.equal (Analysis.Liveness.live_in a l)
                (Liveness_ssa.live_in b l)
             && Support.Bitset.equal (Analysis.Liveness.live_out a l)
                  (Liveness_ssa.live_out b l)))
        (List.init (Ir.num_blocks ssa) Fun.id))

(* Property: the dense bit-vector liveness equals the deliberately
   Hashtbl-shaped reference solver ([Analysis.Liveness_ref]) — the same
   representation differential [repro-cli fuzz] runs on every seed. *)
let prop_liveness_dense_vs_hashtbl =
  QCheck.Test.make ~count:80 ~name:"dense vs hashtbl liveness on SSA"
    QCheck.(pair (int_bound 10_000) (int_range 10 60))
    (fun (seed, size) ->
      let ssa = Ssa.Construct.run_exn (random_program seed size) in
      let cfg = Ir.Cfg.of_func ssa in
      let dense = Analysis.Liveness.compute ssa cfg in
      let href = Analysis.Liveness_ref.compute ssa cfg in
      List.for_all
        (fun l ->
          (not (Ir.Cfg.reachable cfg l))
          || (Support.Bitset.elements (Analysis.Liveness.live_in dense l)
                = Analysis.Liveness_ref.live_in href l
             && Support.Bitset.elements (Analysis.Liveness.live_out dense l)
                  = Analysis.Liveness_ref.live_out href l))
        (List.init (Ir.num_blocks ssa) Fun.id))

(* Property: dominance frontier matches its definition — b ∈ DF(a) iff a
   dominates some predecessor of b but does not strictly dominate b. *)
let prop_dominance_frontier =
  QCheck.Test.make ~count:100 ~name:"dominance frontier matches definition"
    QCheck.small_nat
    (fun seed ->
      let rand = make_rand (seed + 31) in
      let f = random_cfg rand ~blocks:9 ~regs:3 in
      let cfg = Ir.Cfg.of_func f in
      let dom = Analysis.Dominance.compute f cfg in
      let n = Ir.num_blocks f in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if Ir.Cfg.reachable cfg a && Ir.Cfg.reachable cfg b then begin
                let in_frontier = List.mem b (Analysis.Dominance.frontier dom a) in
                let by_definition =
                  List.exists
                    (fun p -> Analysis.Dominance.dominates dom a p)
                    (Ir.Cfg.preds_list cfg b)
                  && not (Analysis.Dominance.strictly_dominates dom a b)
                in
                in_frontier = by_definition
              end
              else true)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Property: loop headers dominate every block of their loop (depth > 0
   implies some header dominates it), and the entry has depth 0. *)
let prop_loop_depth_sanity =
  QCheck.Test.make ~count:100 ~name:"loop depth sanity"
    QCheck.small_nat
    (fun seed ->
      let rand = make_rand (seed + 57) in
      let f = random_cfg rand ~blocks:8 ~regs:3 in
      let cfg = Ir.Cfg.of_func f in
      let dom = Analysis.Dominance.compute f cfg in
      let loops = Analysis.Loops.compute cfg dom in
      Analysis.Loops.depth loops f.Ir.entry = 0
      && List.for_all
           (fun l ->
             (not (Ir.Cfg.reachable cfg l))
             || Analysis.Loops.depth loops l = 0
             || List.exists
                  (fun h -> Analysis.Dominance.dominates dom h l)
                  (Analysis.Loops.headers loops))
           (List.init (Ir.num_blocks f) Fun.id))

(* Differential: the stamp-array natural-loop pass against the per-back-edge
   reference in Helpers, on every kernel, the large routines, the degenerate
   shapes, and random (possibly irreducible) CFGs. *)
let loops_agree (f : Ir.func) =
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let loops = Analysis.Loops.compute cfg dom in
  let depth, headers = naive_loops cfg dom in
  Analysis.Loops.headers loops = headers
  && Array.for_all Fun.id
       (Array.mapi (fun l d -> Analysis.Loops.depth loops l = d) depth)

let test_loops_vs_reference () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      checkb (e.name ^ ": loops match reference") true (loops_agree e.func))
    (Workloads.Suite.kernels () @ Workloads.Suite.large ()
    @ Workloads.Suite.adversarial ())

let prop_loops_vs_reference =
  QCheck.Test.make ~count:200 ~name:"loops match reference on random CFGs"
    QCheck.small_nat
    (fun seed ->
      let rand = make_rand (seed + 911) in
      loops_agree (random_cfg rand ~blocks:(2 + (seed mod 14)) ~regs:3))

let test_loops () =
  let f = counting_loop () in
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let loops = Analysis.Loops.compute cfg dom in
  checki "one loop" 1 (Analysis.Loops.num_loops loops);
  check Alcotest.(list int) "header" [ 1 ] (Analysis.Loops.headers loops);
  checki "entry depth 0" 0 (Analysis.Loops.depth loops 0);
  checki "header depth 1" 1 (Analysis.Loops.depth loops 1);
  checki "body depth 1" 1 (Analysis.Loops.depth loops 2);
  checki "exit depth 0" 0 (Analysis.Loops.depth loops 3)

let test_nested_loops () =
  (* Two nested whiles from the frontend. *)
  let f =
    Frontend.Lower.compile_one
      {|
      func nest(n) {
        s = 0;
        i = 0;
        while (i < n) {
          j = 0;
          while (j < n) {
            s = s + 1;
            j = j + 1;
          }
          i = i + 1;
        }
        return s;
      }
      |}
  in
  let cfg = Ir.Cfg.of_func f in
  let dom = Analysis.Dominance.compute f cfg in
  let loops = Analysis.Loops.compute cfg dom in
  checki "two loops" 2 (Analysis.Loops.num_loops loops);
  let max_depth =
    List.fold_left
      (fun acc l -> max acc (Analysis.Loops.depth loops l))
      0
      (List.init (Ir.num_blocks f) Fun.id)
  in
  checki "inner body depth 2" 2 max_depth

let suite =
  [
    Alcotest.test_case "dominators on a loop" `Quick test_dominance_loop;
    Alcotest.test_case "preorder intervals" `Quick test_preorder_intervals;
    QCheck_alcotest.to_alcotest prop_dominators;
    QCheck_alcotest.to_alcotest prop_preorder_ancestry;
    QCheck_alcotest.to_alcotest prop_dominators_raw;
    QCheck_alcotest.to_alcotest prop_dominators_ssa;
    Alcotest.test_case "adversarial shapes: CHK dominators = naive" `Quick
      test_dominators_on_adversarial;
    Alcotest.test_case "liveness on a loop" `Quick test_liveness_loop;
    Alcotest.test_case "liveness is phi-aware" `Quick test_liveness_phi_aware;
    QCheck_alcotest.to_alcotest prop_liveness;
    QCheck_alcotest.to_alcotest prop_liveness_worklist_vs_round_robin;
    QCheck_alcotest.to_alcotest prop_liveness_implementations_agree;
    QCheck_alcotest.to_alcotest prop_liveness_dense_vs_hashtbl;
    QCheck_alcotest.to_alcotest prop_dominance_frontier;
    QCheck_alcotest.to_alcotest prop_loop_depth_sanity;
    Alcotest.test_case "natural loops" `Quick test_loops;
    Alcotest.test_case "loops match reference on suites" `Quick
      test_loops_vs_reference;
    QCheck_alcotest.to_alcotest prop_loops_vs_reference;
    Alcotest.test_case "nested loop depth" `Quick test_nested_loops;
  ]
