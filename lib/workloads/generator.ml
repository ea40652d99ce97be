type config = {
  seed : int;
  size : int;
  max_depth : int;
  num_vars : int;
}

let default = { seed = 42; size = 40; max_depth = 3; num_vars = 8 }

(* Small explicit linear-congruential PRNG so generation is reproducible
   across OCaml versions and independent of the global Random state. *)
type rng = { mutable state : int64 }

let rng_make seed = { state = Int64.of_int (seed * 2 + 1) }

let rand rng bound =
  if bound <= 0 then invalid_arg "Generator.rand: bound must be positive";
  let draw () =
    rng.state <-
      Int64.add (Int64.mul rng.state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical rng.state 33)
  in
  (* Rejection-sample the 31-bit draw down to the largest multiple of
     [bound], so every residue is equally likely (plain [x mod bound] favors
     small residues whenever bound does not divide 2^31). *)
  let range = 1 lsl 31 in
  let limit = range - (range mod bound) in
  let rec go () =
    let x = draw () in
    if x < limit then x mod bound else go ()
  in
  go ()

let pick rng l = List.nth l (rand rng (List.length l))

let var_name i = Printf.sprintf "v%d" i

(* Seed the variable pool from the parameters so everything is strict-ish
   even before the lowering inserts initializations. *)
let preamble num_vars =
  List.init num_vars (fun i ->
      Frontend.Ast.Assign
        ( var_name i,
          if i = 0 then Frontend.Ast.Var "n"
          else if i = 1 then Frontend.Ast.Var "a"
          else Frontend.Ast.Int (i * 3 - 4) ))

(* Return a mix of every variable so no assignment is trivially dead. *)
let checksum num_vars =
  let sum =
    List.fold_left
      (fun acc i ->
        Frontend.Ast.Binary
          ( (if i mod 2 = 0 then Frontend.Ast.Add else Frontend.Ast.Sub),
            acc,
            Frontend.Ast.Var (var_name i) ))
      (Frontend.Ast.Var (var_name 0))
      (List.init (num_vars - 1) (fun i -> i + 1))
  in
  [ Frontend.Ast.Return (Some sum) ]

let generate cfg =
  let rng = rng_make cfg.seed in
  let var () = Frontend.Ast.Var (var_name (rand rng cfg.num_vars)) in
  let arr_names = [ "a0"; "a1"; "a2" ] in
  (* Expressions: no division (faults), indices wrapped with % to stay in
     bounds, depth-bounded. *)
  let rec expr depth =
    match rand rng (if depth = 0 then 3 else 7) with
    | 0 -> Frontend.Ast.Int (rand rng 20 - 5)
    | 1 | 2 -> var ()
    | 3 ->
      Frontend.Ast.Binary
        (pick rng [ Frontend.Ast.Add; Frontend.Ast.Sub; Frontend.Ast.Mul ], expr (depth - 1), expr (depth - 1))
    | 4 -> (
      (* Keep negated literals in the parser's canonical folded form, so
         generated ASTs round-trip through print-and-reparse exactly. *)
      match expr (depth - 1) with
      | Frontend.Ast.Int i -> Frontend.Ast.Int (-i)
      | Frontend.Ast.Float x -> Frontend.Ast.Float (-.x)
      | e -> Frontend.Ast.Unary (Frontend.Ast.Neg, e))
    | 5 -> Frontend.Ast.Index (pick rng arr_names, index_expr ())
    | _ ->
      Frontend.Ast.Binary
        (pick rng [ Frontend.Ast.Lt; Frontend.Ast.Le; Frontend.Ast.Gt; Frontend.Ast.Eq ], expr (depth - 1), expr (depth - 1))
  and index_expr () =
    (* ((e % 64) + 64) % 64 stays within any array of ≥ 64 cells even for
       negative e. *)
    let e = expr 1 in
    Frontend.Ast.Binary (Frontend.Ast.Mod, Frontend.Ast.Binary (Frontend.Ast.Add, Frontend.Ast.Binary (Frontend.Ast.Mod, e, Frontend.Ast.Int 64), Frontend.Ast.Int 64), Frontend.Ast.Int 64)
  in
  let cond () =
    Frontend.Ast.Binary (pick rng [ Frontend.Ast.Lt; Frontend.Ast.Le; Frontend.Ast.Gt; Frontend.Ast.Ne ], expr 1, expr 1)
  in
  let counter = ref 0 in
  let fresh_counter () =
    incr counter;
    Printf.sprintf "c%d" !counter
  in
  let rec stmts depth budget : Frontend.Ast.stmt list =
    if budget <= 0 then []
    else begin
      let s, used =
        match rand rng 12 with
        | 0 | 1 | 2 ->
          (* plain assignment *)
          ([ Frontend.Ast.Assign (var_name (rand rng cfg.num_vars), expr 2) ], 1)
        | 3 | 4 ->
          (* copy chain: the bread and butter of coalescing *)
          let a = rand rng cfg.num_vars in
          let b = rand rng cfg.num_vars in
          let c = rand rng cfg.num_vars in
          ( [
              Frontend.Ast.Assign (var_name b, Frontend.Ast.Var (var_name a));
              Frontend.Ast.Assign (var_name c, Frontend.Ast.Var (var_name b));
            ],
            2 )
        | 5 ->
          (* swap through a temporary *)
          let a = var_name (rand rng cfg.num_vars) in
          let b = var_name (rand rng cfg.num_vars) in
          ( [
              Frontend.Ast.Assign ("tswap", Frontend.Ast.Var a);
              Frontend.Ast.Assign (a, Frontend.Ast.Var b);
              Frontend.Ast.Assign (b, Frontend.Ast.Var "tswap");
            ],
            2 )
        | 6 ->
          (* array store *)
          ([ Frontend.Ast.Store (pick rng arr_names, index_expr (), expr 2) ], 1)
        | 7 | 8 when depth < cfg.max_depth ->
          (* conditional, possibly with else *)
          let t = stmts (depth + 1) (1 + rand rng 4) in
          let e = if rand rng 2 = 0 then [] else stmts (depth + 1) (1 + rand rng 4) in
          ([ Frontend.Ast.If (cond (), t, e) ], 2 + List.length t + List.length e)
        | 9 | 10 when depth < cfg.max_depth ->
          (* bounded loop with a fresh counter *)
          let c = fresh_counter () in
          let body = stmts (depth + 1) (1 + rand rng 5) in
          let bound = 2 + rand rng 6 in
          ( [
              Frontend.Ast.Assign (c, Frontend.Ast.Int 0);
              Frontend.Ast.While
                ( Frontend.Ast.Binary (Frontend.Ast.Lt, Frontend.Ast.Var c, Frontend.Ast.Int bound),
                  body @ [ Frontend.Ast.Assign (c, Frontend.Ast.Binary (Frontend.Ast.Add, Frontend.Ast.Var c, Frontend.Ast.Int 1)) ] );
            ],
            3 + List.length body )
        | _ ->
          (* conditional swap: the virtual-swap generator *)
          let a = var_name (rand rng cfg.num_vars) in
          let b = var_name (rand rng cfg.num_vars) in
          ( [
              Frontend.Ast.If
                ( cond (),
                  [ Frontend.Ast.Assign (a, Frontend.Ast.Var b) ],
                  [ Frontend.Ast.Assign (b, Frontend.Ast.Var a) ] );
            ],
            3 )
      in
      s @ stmts depth (budget - used)
    end
  in
  let body = stmts 0 cfg.size in
  (* The name must identify the config: two configs differing only in
     [num_vars] or [max_depth] generate different programs, so they may not
     share a name (batch drivers and benches key tables by function name).
     The default-shaped suffix is omitted to keep historical names stable. *)
  let name =
    if cfg.num_vars = default.num_vars && cfg.max_depth = default.max_depth
    then Printf.sprintf "gen%d_%d" cfg.seed cfg.size
    else
      Printf.sprintf "gen%d_%d_v%dd%d" cfg.seed cfg.size cfg.num_vars
        cfg.max_depth
  in
  {
    Frontend.Ast.name;
    params = [ "n"; "a" ];
    body = preamble cfg.num_vars @ body @ checksum cfg.num_vars;
  }

let generate_ir cfg = fst (Frontend.Lower.lower (generate cfg))

(* Arithmetic-heavy "numeric" programs: the straight-line-numerics shape of
   the paper's largest inputs (fpppp, twldrv) — long runs of deep
   expressions inside a few bounded loops. Almost every register is a
   single-use expression temp, so the copy-related fraction of the name
   universe is tiny: the regime where the copy-restricted Briggs* graph
   is orders of magnitude smaller than the full one. The structured
   [generate] above cannot reach this regime — its statement mix is built
   to stress coalescing, which makes nearly half the names copy-related. *)
let generate_numeric cfg =
  let rng = rng_make cfg.seed in
  let var () = Frontend.Ast.Var (var_name (rand rng cfg.num_vars)) in
  let arr_names = [ "a0"; "a1"; "a2" ] in
  (* Full binary expression trees: depth d costs ~2^d single-use temps. *)
  let rec expr depth =
    if depth = 0 then
      match rand rng 4 with
      | 0 -> Frontend.Ast.Int (rand rng 20 - 5)
      | _ -> var ()
    else
      Frontend.Ast.Binary
        ( pick rng [ Frontend.Ast.Add; Frontend.Ast.Sub; Frontend.Ast.Mul ],
          expr (depth - 1),
          expr (depth - 1) )
  in
  let index_expr () =
    let e = expr 1 in
    Frontend.Ast.Binary (Frontend.Ast.Mod, Frontend.Ast.Binary (Frontend.Ast.Add, Frontend.Ast.Binary (Frontend.Ast.Mod, e, Frontend.Ast.Int 64), Frontend.Ast.Int 64), Frontend.Ast.Int 64)
  in
  let stmt () =
    match rand rng 8 with
    | 0 -> Frontend.Ast.Store (pick rng arr_names, index_expr (), expr 3)
    | _ -> Frontend.Ast.Assign (var_name (rand rng cfg.num_vars), expr 4)
  in
  let run n = List.init n (fun _ -> stmt ()) in
  let counted_loop c bound body =
    [
      Frontend.Ast.Assign (c, Frontend.Ast.Int 0);
      Frontend.Ast.While
        ( Frontend.Ast.Binary (Frontend.Ast.Lt, Frontend.Ast.Var c, Frontend.Ast.Int bound),
          body
          @ [
              Frontend.Ast.Assign
                (c, Frontend.Ast.Binary (Frontend.Ast.Add, Frontend.Ast.Var c, Frontend.Ast.Int 1));
            ] );
    ]
  in
  (* Two loops around one straight run: enough joins that every pool
     variable still needs φs (so the coalescers have real work), with the
     statement budget spent on expression temps rather than copies. *)
  let third = max 1 (cfg.size / 3) in
  let body =
    counted_loop "c1" 3 (run third)
    @ run third
    @ counted_loop "c2" 2 (run (max 1 (cfg.size - (2 * third))))
  in
  let name = Printf.sprintf "num%d_%d" cfg.seed cfg.size in
  {
    Frontend.Ast.name;
    params = [ "n"; "a" ];
    body = preamble cfg.num_vars @ body @ checksum cfg.num_vars;
  }

let generate_numeric_ir cfg = fst (Frontend.Lower.lower (generate_numeric cfg))

(* ------------------------------------------------------------------ *)
(* Adversarial CFG shapes                                             *)
(* ------------------------------------------------------------------ *)

(* Raw-IR families built directly with Ir.Builder: the structured AST
   generator only produces reducible, shallowly-joined graphs, so it can
   never trigger the O(n²) tail of the iterative dominator algorithm.
   Each family is strict (every use definitely assigned: condition
   registers are defined in the branching block itself, counters on every
   path to their loop header) and terminates under the interpreter (the
   only cycles are bounded counter loops). *)

type shape = Comb | Skewed_ladder | Dense_diamonds | Deep_loop_nest

let shape_name = function
  | Comb -> "comb"
  | Skewed_ladder -> "skewed_ladder"
  | Dense_diamonds -> "dense_diamonds"
  | Deep_loop_nest -> "deep_loop_nest"

let shapes = [ Comb; Skewed_ladder; Dense_diamonds; Deep_loop_nest ]

(* acc := acc + k *)
let bump b l acc k =
  Ir.Builder.push b l
    (Ir.Binop { op = Ir.Add; dst = acc; l = Ir.Reg acc; r = Ir.Const (Ir.Int k) })

(* Mint and define a fresh condition register in [l] itself, so strictness
   holds no matter where [l] sits in the graph. *)
let cond_in b l acc =
  let c = Ir.Builder.fresh_reg ~name:"c" b in
  Ir.Builder.push b l
    (Ir.Binop { op = Ir.Lt; dst = c; l = Ir.Reg acc; r = Ir.Const (Ir.Int 1) });
  Ir.Reg c

(* Two deep rails a/b plus a flat chain of rung joins; every join is
   reached from both rails, so its idom is the entry while its rail
   predecessors sit i deep in the dominator tree — the CHK intersect walk
   pays O(i) per rung, O(n²) overall. *)
let build_comb n =
  let b = Ir.Builder.create (Printf.sprintf "comb%d" n) in
  let entry = Ir.Builder.add_block b in
  let acc = Ir.Builder.fresh_reg ~name:"acc" b in
  Ir.Builder.push b entry (Ir.Copy { dst = acc; src = Ir.Const (Ir.Int 0) });
  let ra = Array.init n (fun _ -> Ir.Builder.add_block b) in
  let rb = Array.init n (fun _ -> Ir.Builder.add_block b) in
  let j = Array.init n (fun _ -> Ir.Builder.add_block b) in
  let exit_b = Ir.Builder.add_block b in
  let ce = cond_in b entry acc in
  Ir.Builder.terminate b entry
    (Ir.Branch { cond = ce; if_true = ra.(0); if_false = rb.(0) });
  for i = 0 to n - 1 do
    bump b ra.(i) acc 1;
    bump b rb.(i) acc 2;
    let ca = cond_in b ra.(i) acc in
    let cb = cond_in b rb.(i) acc in
    let next_a = if i + 1 < n then ra.(i + 1) else j.(n - 1) in
    let next_b = if i + 1 < n then rb.(i + 1) else j.(n - 1) in
    Ir.Builder.terminate b ra.(i)
      (Ir.Branch { cond = ca; if_true = next_a; if_false = j.(i) });
    Ir.Builder.terminate b rb.(i)
      (Ir.Branch { cond = cb; if_true = next_b; if_false = j.(i) });
    Ir.Builder.terminate b j.(i)
      (Ir.Jump (if i + 1 < n then j.(i + 1) else exit_b))
  done;
  Ir.Builder.terminate b exit_b (Ir.Return (Some (Ir.Reg acc)));
  Ir.Builder.finish b

(* One deep rail, one flat join chain: join i's predecessors are the
   (flat-dominated) previous join and a rail block i deep — the skew that
   makes each CHK intersect walk the whole rail. *)
let build_skewed_ladder n =
  let b = Ir.Builder.create (Printf.sprintf "skewed_ladder%d" n) in
  let entry = Ir.Builder.add_block b in
  let acc = Ir.Builder.fresh_reg ~name:"acc" b in
  Ir.Builder.push b entry (Ir.Copy { dst = acc; src = Ir.Const (Ir.Int 0) });
  let d = Array.init n (fun _ -> Ir.Builder.add_block b) in
  let j = Array.init n (fun _ -> Ir.Builder.add_block b) in
  let exit_b = Ir.Builder.add_block b in
  let ce = cond_in b entry acc in
  Ir.Builder.terminate b entry
    (Ir.Branch { cond = ce; if_true = d.(0); if_false = j.(0) });
  for i = 0 to n - 1 do
    bump b d.(i) acc 1;
    (if i + 1 < n then begin
       let c = cond_in b d.(i) acc in
       Ir.Builder.terminate b d.(i)
         (Ir.Branch { cond = c; if_true = d.(i + 1); if_false = j.(i + 1) })
     end
     else Ir.Builder.terminate b d.(i) (Ir.Jump exit_b));
    Ir.Builder.terminate b j.(i)
      (Ir.Jump (if i + 1 < n then j.(i + 1) else exit_b))
  done;
  Ir.Builder.terminate b exit_b (Ir.Return (Some (Ir.Reg acc)));
  Ir.Builder.finish b

(* A chain of 4-wide diamonds (a branch tree two deep fanning into four
   leaves that re-join): every stage boundary is a dense join, stressing
   frontier construction and the liveness meet. *)
let build_dense_diamonds n =
  let b = Ir.Builder.create (Printf.sprintf "dense_diamonds%d" n) in
  let heads = Array.init (n + 1) (fun _ -> Ir.Builder.add_block b) in
  let acc = Ir.Builder.fresh_reg ~name:"acc" b in
  Ir.Builder.push b heads.(0) (Ir.Copy { dst = acc; src = Ir.Const (Ir.Int 0) });
  for i = 0 to n - 1 do
    let m1 = Ir.Builder.add_block b and m2 = Ir.Builder.add_block b in
    let leaves = Array.init 4 (fun _ -> Ir.Builder.add_block b) in
    let ch = cond_in b heads.(i) acc in
    Ir.Builder.terminate b heads.(i)
      (Ir.Branch { cond = ch; if_true = m1; if_false = m2 });
    let c1 = cond_in b m1 acc in
    Ir.Builder.terminate b m1
      (Ir.Branch { cond = c1; if_true = leaves.(0); if_false = leaves.(1) });
    let c2 = cond_in b m2 acc in
    Ir.Builder.terminate b m2
      (Ir.Branch { cond = c2; if_true = leaves.(2); if_false = leaves.(3) });
    Array.iteri
      (fun k leaf ->
        bump b leaf acc (k + 1);
        Ir.Builder.terminate b leaf (Ir.Jump heads.(i + 1)))
      leaves
  done;
  Ir.Builder.terminate b heads.(n) (Ir.Return (Some (Ir.Reg acc)));
  Ir.Builder.finish b

(* Loops nested [depth] deep, two trips each: the dominator tree is one
   long spine and every header is a join with a back edge — deep idom
   chains for CHK. 2^depth innermost iterations, so keep depth modest
   where the result is run. *)
let build_deep_loop_nest depth =
  let b = Ir.Builder.create (Printf.sprintf "deep_loop_nest%d" depth) in
  let entry = Ir.Builder.add_block b in
  let acc = Ir.Builder.fresh_reg ~name:"acc" b in
  Ir.Builder.push b entry (Ir.Copy { dst = acc; src = Ir.Const (Ir.Int 0) });
  let v = Array.init depth (fun i -> Ir.Builder.fresh_reg ~name:(Printf.sprintf "v%d" i) b) in
  let heads = Array.init depth (fun _ -> Ir.Builder.add_block b) in
  let bodies = Array.init depth (fun _ -> Ir.Builder.add_block b) in
  let exits = Array.init depth (fun _ -> Ir.Builder.add_block b) in
  Ir.Builder.push b entry (Ir.Copy { dst = v.(0); src = Ir.Const (Ir.Int 0) });
  Ir.Builder.terminate b entry (Ir.Jump heads.(0));
  for i = 0 to depth - 1 do
    let c = Ir.Builder.fresh_reg ~name:"c" b in
    Ir.Builder.push b heads.(i)
      (Ir.Binop { op = Ir.Lt; dst = c; l = Ir.Reg v.(i); r = Ir.Const (Ir.Int 2) });
    Ir.Builder.terminate b heads.(i)
      (Ir.Branch { cond = Ir.Reg c; if_true = bodies.(i); if_false = exits.(i) });
    if i + 1 < depth then begin
      Ir.Builder.push b bodies.(i)
        (Ir.Copy { dst = v.(i + 1); src = Ir.Const (Ir.Int 0) });
      Ir.Builder.terminate b bodies.(i) (Ir.Jump heads.(i + 1))
    end
    else begin
      bump b bodies.(i) acc 1;
      Ir.Builder.push b bodies.(i)
        (Ir.Binop { op = Ir.Add; dst = v.(i); l = Ir.Reg v.(i); r = Ir.Const (Ir.Int 1) });
      Ir.Builder.terminate b bodies.(i) (Ir.Jump heads.(i))
    end;
    if i = 0 then Ir.Builder.terminate b exits.(i) (Ir.Return (Some (Ir.Reg acc)))
    else begin
      Ir.Builder.push b exits.(i)
        (Ir.Binop { op = Ir.Add; dst = v.(i - 1); l = Ir.Reg v.(i - 1); r = Ir.Const (Ir.Int 1) });
      Ir.Builder.terminate b exits.(i) (Ir.Jump heads.(i - 1))
    end
  done;
  Ir.Builder.finish b

let adversarial shape ~size =
  let size = max 1 size in
  match shape with
  | Comb -> build_comb size
  | Skewed_ladder -> build_skewed_ladder size
  | Dense_diamonds -> build_dense_diamonds size
  | Deep_loop_nest -> build_deep_loop_nest size
