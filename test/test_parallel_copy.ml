(* Tests for parallel-copy sequentialization: the machinery behind the
   lost-copy/swap/virtual-swap handling of Section 3.6. *)

open Helpers

(* Simulate a sequence of Copy instructions over an environment. *)
let run_copies env instrs =
  let env = Hashtbl.copy env in
  List.iter
    (fun i ->
      match i with
      | Ir.Copy { dst; src = Ir.Reg s } ->
        Hashtbl.replace env dst (Hashtbl.find env s)
      | Ir.Copy { dst; src = Ir.Const (Ir.Int v) } -> Hashtbl.replace env dst v
      | _ -> Alcotest.fail "sequentialize emitted a non-copy")
    instrs;
  env

(* Reference: the parallel-copy semantics (all reads first). *)
let run_parallel env (moves : Ssa.Parallel_copy.move list) =
  let env' = Hashtbl.copy env in
  let reads =
    List.map
      (fun (m : Ssa.Parallel_copy.move) ->
        match m.src with
        | Ir.Reg s -> (m.dst, Hashtbl.find env s)
        | Ir.Const (Ir.Int v) -> (m.dst, v)
        | Ir.Const (Ir.Float _) -> assert false)
      moves
  in
  List.iter (fun (d, v) -> Hashtbl.replace env' d v) reads;
  env'

let env_of_list l =
  let h = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let env_equal a b ~on =
  List.for_all (fun r -> Hashtbl.find_opt a r = Hashtbl.find_opt b r) on

let fresh_from n =
  let next = ref n in
  fun () ->
    let r = !next in
    incr next;
    r

let check_moves ?(regs = [ 0; 1; 2; 3; 4; 5 ]) moves =
  let env = env_of_list (List.map (fun r -> (r, 100 + r)) regs) in
  let instrs = Ssa.Parallel_copy.sequentialize ~fresh:(fresh_from 100) moves in
  let got = run_copies env instrs in
  let want = run_parallel env moves in
  checkb "parallel semantics preserved" true (env_equal got want ~on:regs);
  instrs

let test_simple_chain () =
  (* 1 := 0 and 2 := 1 in parallel: 2 must read the OLD 1. *)
  let instrs =
    check_moves [ { dst = 1; src = Reg 0 }; { dst = 2; src = Reg 1 } ]
  in
  checki "two copies, no temp" 2 (List.length instrs)

let test_swap_needs_temp () =
  let moves : Ssa.Parallel_copy.move list =
    [ { dst = 0; src = Reg 1 }; { dst = 1; src = Reg 0 } ]
  in
  checkb "cycle detected" true (Ssa.Parallel_copy.needs_temp moves);
  let instrs = check_moves moves in
  checki "swap takes three copies" 3 (List.length instrs)

let test_three_cycle () =
  let moves : Ssa.Parallel_copy.move list =
    [ { dst = 0; src = Reg 1 }; { dst = 1; src = Reg 2 }; { dst = 2; src = Reg 0 } ]
  in
  checkb "cycle detected" true (Ssa.Parallel_copy.needs_temp moves);
  let instrs = check_moves moves in
  checki "3-cycle takes four copies" 4 (List.length instrs)

let test_identity_dropped () =
  let instrs = check_moves [ { dst = 0; src = Reg 0 } ] in
  checki "identity move vanishes" 0 (List.length instrs)

let test_consts_and_chain () =
  (* 0 := 7 while 1 := old 0: the constant write must wait. *)
  let instrs =
    check_moves [ { dst = 0; src = Const (Int 7) }; { dst = 1; src = Reg 0 } ]
  in
  checki "no temp needed" 2 (List.length instrs)

let test_duplicate_source () =
  ignore
    (check_moves
       [ { dst = 1; src = Reg 0 }; { dst = 2; src = Reg 0 }; { dst = 0; src = Reg 2 } ])

let test_duplicate_dst_rejected () =
  Alcotest.check_raises "duplicate destination"
    (Invalid_argument "Parallel_copy: duplicate destination") (fun () ->
      ignore
        (Ssa.Parallel_copy.sequentialize ~fresh:(fresh_from 100)
           [ { dst = 0; src = Reg 1 }; { dst = 0; src = Reg 2 } ]))

let test_no_temp_cases () =
  checkb "chain has no cycle" false
    (Ssa.Parallel_copy.needs_temp [ { dst = 1; src = Reg 0 }; { dst = 2; src = Reg 1 } ]);
  checkb "const has no cycle" false
    (Ssa.Parallel_copy.needs_temp [ { dst = 0; src = Const (Int 1) } ])

let test_virtual_swap_edges () =
  (* The two parallel-copy sets Figure 3 places on the join edges: each is
     cycle-free on its own even though together they encode a swap, so
     neither may burn a temporary. *)
  List.iter
    (fun (moves : Ssa.Parallel_copy.move list) ->
      checkb "edge copies need no temp" false
        (Ssa.Parallel_copy.needs_temp moves);
      let instrs = check_moves moves in
      checki "two copies per edge" 2 (List.length instrs))
    [
      [ { dst = 3; src = Reg 1 }; { dst = 4; src = Reg 2 } ];
      [ { dst = 3; src = Reg 2 }; { dst = 4; src = Reg 1 } ];
    ]

let test_cycle_with_constants () =
  (* A real swap plus constant writes into registers the rest of the move
     set reads: the reads must still happen before the constant lands. *)
  let moves : Ssa.Parallel_copy.move list =
    [
      { dst = 0; src = Reg 1 };
      { dst = 1; src = Reg 0 };
      { dst = 2; src = Const (Int 9) };
      { dst = 3; src = Reg 2 };
    ]
  in
  checkb "cycle detected" true (Ssa.Parallel_copy.needs_temp moves);
  ignore (check_moves moves)

let test_long_chain_memoized () =
  (* A 200-copy chain exercises the memoized cycle walk (each register's
     chain is followed once, not once per start); closing the chain into a
     ring must flip the answer. *)
  let chain =
    List.init 200 (fun i -> { Ssa.Parallel_copy.dst = i + 1; src = Ir.Reg i })
  in
  checkb "long chain no temp" false (Ssa.Parallel_copy.needs_temp chain);
  checkb "closed chain cycles" true
    (Ssa.Parallel_copy.needs_temp
       ({ Ssa.Parallel_copy.dst = 0; src = Ir.Reg 200 } :: chain))

(* Property: full random permutations of the register file — the all-cycles
   stress case — are sequentialized correctly, and [needs_temp] agrees
   exactly with whether [sequentialize] allocated a temporary. *)
let prop_random_permutation =
  QCheck.Test.make ~count:200 ~name:"random permutations preserved"
    QCheck.(pair (int_bound 6) (int_bound 1000))
    (fun (extra, seed) ->
      let n = extra + 2 in
      let rand = make_rand (seed + 1) in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = rand (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let moves =
        List.init n (fun d ->
            { Ssa.Parallel_copy.dst = d; src = Ir.Reg perm.(d) })
      in
      let regs = List.init n Fun.id in
      let env = env_of_list (List.map (fun r -> (r, 300 + r)) regs) in
      let instrs =
        Ssa.Parallel_copy.sequentialize ~fresh:(fresh_from 100) moves
      in
      let got = run_copies env instrs in
      let want = run_parallel env moves in
      let used_temp =
        List.exists
          (function Ir.Copy { dst; _ } -> dst >= 100 | _ -> false)
          instrs
      in
      env_equal got want ~on:regs
      && used_temp = Ssa.Parallel_copy.needs_temp moves)

(* Property: a random permutation-with-extras parallel copy is always
   sequentialized correctly. *)
let prop_random_parallel_copy =
  QCheck.Test.make ~count:300 ~name:"random parallel copies preserved"
    QCheck.(list_of_size Gen.(1 -- 6) (pair (int_bound 7) (int_bound 9)))
    (fun raw ->
      (* Build moves with distinct dsts; srcs: 0..7 regs, 8..9 = consts. *)
      let seen = Hashtbl.create 8 in
      let moves =
        List.filter_map
          (fun (d, s) ->
            if Hashtbl.mem seen d then None
            else begin
              Hashtbl.add seen d ();
              let src =
                if s >= 8 then Ir.Const (Ir.Int (1000 + s)) else Ir.Reg s
              in
              Some { Ssa.Parallel_copy.dst = d; src }
            end)
          raw
      in
      let regs = List.init 8 Fun.id in
      let env = env_of_list (List.map (fun r -> (r, 200 + r)) regs) in
      let instrs = Ssa.Parallel_copy.sequentialize ~fresh:(fresh_from 50) moves in
      let got = run_copies env instrs in
      let want = run_parallel env moves in
      env_equal got want ~on:regs)

(* Property: a move set assembled from known pieces — disjoint register
   cycles (length ≥ 2), a chain hanging off them, and constant writes —
   sequentializes to the parallel semantics, uses exactly one temporary per
   cycle (each cycle needs one, and one always suffices), and agrees with
   [needs_temp]. The Obs recorder must see the same temp count. *)
let prop_cycles_use_one_temp_each =
  QCheck.Test.make ~count:300 ~name:"one temp per cycle, counted by Obs"
    QCheck.(triple (int_bound 2) (list_of_size Gen.(0 -- 3) (int_range 2 4)) (int_bound 1000))
    (fun (nconsts, cycle_lens, seed) ->
      (* QCheck's shrinker for int_range can step below the range; a
         "cycle" needs at least two registers to be one. *)
      let cycle_lens = List.filter (fun l -> l >= 2) cycle_lens in
      let rand = make_rand (seed + 7) in
      let next_reg = ref 0 in
      let reg () =
        let r = !next_reg in
        incr next_reg;
        r
      in
      (* Disjoint cycles over fresh registers: r0 <- r1 <- ... <- r0. *)
      let cycles =
        List.map (fun len -> Array.init len (fun _ -> reg ())) cycle_lens
      in
      let cycle_moves =
        List.concat_map
          (fun regs ->
            let len = Array.length regs in
            List.init len (fun i ->
                {
                  Ssa.Parallel_copy.dst = regs.(i);
                  src = Ir.Reg regs.((i + 1) mod len);
                }))
          cycles
      in
      (* A short chain reading out of a cycle (or standalone): fresh dsts
         only, so no new cycle can form. *)
      let chain_moves =
        if !next_reg = 0 then []
        else
          List.init (rand 3) (fun _ ->
              let src = rand !next_reg in
              { Ssa.Parallel_copy.dst = reg (); src = Ir.Reg src })
      in
      let const_moves =
        List.init nconsts (fun i ->
            { Ssa.Parallel_copy.dst = reg (); src = Ir.Const (Ir.Int (500 + i)) })
      in
      let moves = cycle_moves @ chain_moves @ const_moves in
      let regs = List.init !next_reg Fun.id in
      let env = env_of_list (List.map (fun r -> (r, 700 + r)) regs) in
      let temp_base = 1000 in
      let obs = Obs.create () in
      let instrs =
        Ssa.Parallel_copy.sequentialize ~obs ~fresh:(fresh_from temp_base)
          moves
      in
      let got = run_copies env instrs in
      let want = run_parallel env moves in
      let temps =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Ir.Copy { dst; _ } when dst >= temp_base -> Some dst
               | _ -> None)
             instrs)
      in
      let ncycles = List.length cycles in
      (* A cycle read by a chain move needs no fresh temp: emitting the
         chain copy saves one cycle value and frees its register, so the
         cycle drains through it. Only unread cycles cost a temporary. *)
      let chain_srcs =
        List.filter_map
          (fun m ->
            match m.Ssa.Parallel_copy.src with
            | Ir.Reg r -> Some r
            | Ir.Const _ -> None)
          chain_moves
      in
      let expected_temps =
        List.length
          (List.filter
             (fun regs ->
               not (Array.exists (fun r -> List.mem r chain_srcs) regs))
             cycles)
      in
      env_equal got want ~on:regs
      && List.length temps = expected_temps
      && Ssa.Parallel_copy.needs_temp moves = (ncycles > 0)
      && Obs.get obs Obs.Parallel_copy_temps = expected_temps)

let suite =
  [
    Alcotest.test_case "chain ordering" `Quick test_simple_chain;
    Alcotest.test_case "swap via temp" `Quick test_swap_needs_temp;
    Alcotest.test_case "three-cycle" `Quick test_three_cycle;
    Alcotest.test_case "identity dropped" `Quick test_identity_dropped;
    Alcotest.test_case "constants wait for readers" `Quick test_consts_and_chain;
    Alcotest.test_case "duplicated source" `Quick test_duplicate_source;
    Alcotest.test_case "duplicate destination rejected" `Quick
      test_duplicate_dst_rejected;
    Alcotest.test_case "needs_temp negatives" `Quick test_no_temp_cases;
    Alcotest.test_case "virtual-swap edge copies" `Quick
      test_virtual_swap_edges;
    Alcotest.test_case "cycle mixed with constants" `Quick
      test_cycle_with_constants;
    Alcotest.test_case "long chain memoization" `Quick test_long_chain_memoized;
    QCheck_alcotest.to_alcotest prop_random_permutation;
    QCheck_alcotest.to_alcotest prop_random_parallel_copy;
    QCheck_alcotest.to_alcotest prop_cycles_use_one_temp_each;
  ]
