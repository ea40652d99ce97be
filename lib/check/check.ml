(* Translation validation (Check.equiv), the interference audit, and the
   greedy repro shrinker. See check.mli for the contract of each. *)

(* ------------------------------------------------------------------ *)
(* Semantic equivalence                                               *)
(* ------------------------------------------------------------------ *)

type run_outcome =
  | Returned of Ir.value option * (string * Ir.value array) list
  | Faulted of Interp.error

type mismatch = {
  args : Ir.value list;
  reference : run_outcome;
  candidate : run_outcome;
}

let pp_run_outcome ppf = function
  | Faulted e -> Format.fprintf ppf "fault: %a" Interp.pp_error e
  | Returned (v, arrays) ->
    Format.fprintf ppf "returned %s"
      (match v with
      | Some v -> Ir.Printer.value_to_string v
      | None -> "(nothing)");
    List.iter
      (fun (name, cells) ->
        let nonzero =
          Array.fold_left
            (fun n c -> if c <> Ir.Int 0 then n + 1 else n)
            0 cells
        in
        Format.fprintf ppf "; %s[%d nonzero, digest %x]" name nonzero
          (Hashtbl.hash (Array.to_list cells)))
      arrays

let pp_mismatch ppf m =
  Format.fprintf ppf "@[<v>args (%s):@,  reference: %a@,  candidate: %a@]"
    (String.concat ", "
       (List.map Ir.Printer.value_to_string m.args))
    pp_run_outcome m.reference pp_run_outcome m.candidate

(* A fixed pool of magnitudes mixed by a deterministic formula: small
   values drive both branch directions, negatives exercise Neg/compare
   paths, larger ones make loop trip counts differ across vectors. *)
let pool = [| 0; 1; 2; 3; -1; 7; 13; -5; 10; 64; 100; 31; -17; 6; 9; 255 |]

let battery ?(vectors = 8) arity =
  List.init vectors (fun v ->
      List.init arity (fun i ->
          match v with
          | 0 -> Ir.Int 0
          | 1 -> Ir.Int 1
          | _ ->
            Ir.Int pool.(((v * 7) + (i * 13) + (v * i * 3)) mod Array.length pool)))

(* Observable memory: drop ignored arrays and arrays never holding a
   non-zero value (side memory is created zero-filled on first access, so a
   read-only array is indistinguishable from an untouched one). *)
let observable ~ignore_arrays (o : Interp.outcome) =
  List.filter
    (fun (name, cells) ->
      (not (List.mem name ignore_arrays))
      && Array.exists (fun v -> v <> Ir.Int 0) cells)
    o.Interp.arrays

let equiv ?vectors ?array_size ?step_limit ?(ignore_arrays = [])
    ~(reference : Ir.func) (candidate : Ir.func) =
  if List.length reference.Ir.params <> List.length candidate.Ir.params then
    invalid_arg "Check.equiv: arity mismatch between reference and candidate";
  let execute f args =
    match Interp.run ?array_size ?step_limit ~args f with
    | o -> Returned (o.Interp.return_value, observable ~ignore_arrays o)
    | exception Interp.Error e -> Faulted e
  in
  let rec check = function
    | [] -> Ok ()
    | args :: rest -> (
      let a = execute reference args in
      let b = execute candidate args in
      match (a, b) with
      (* A reference over the step limit says nothing: skip the vector.
         A candidate over it where the reference finished is a mismatch
         (a terminating loop made endless); the limit sits far above any
         legitimate growth in instruction count. *)
      | Faulted Interp.Step_limit_exceeded, _ -> check rest
      | Faulted ea, Faulted eb when ea = eb -> check rest
      | Returned (va, ma), Returned (vb, mb) when va = vb && ma = mb ->
        check rest
      | _ -> Error { args; reference = a; candidate = b })
  in
  check (battery ?vectors (List.length reference.Ir.params))

(* ------------------------------------------------------------------ *)
(* Interference audit                                                 *)
(* ------------------------------------------------------------------ *)

type interference = {
  cls : Ir.reg list;
  u : Ir.reg;
  v : Ir.reg;
  oracle : string;
}

let pp_interference ppf i =
  Format.fprintf ppf
    "congruence class {%s} contains interfering members r%d and r%d (%s \
     oracle)"
    (String.concat ", " (List.map (fun r -> Printf.sprintf "r%d" r) i.cls))
    i.u i.v i.oracle

exception Found of interference

let audit_pairs ~oracle ~interferes classes =
  List.iter
    (fun cls ->
      let rec pairs = function
        | [] -> ()
        | u :: rest ->
          List.iter
            (fun v -> if interferes u v then raise (Found { cls; u; v; oracle }))
            rest;
          pairs rest
      in
      pairs cls)
    classes

let interference_audit ?(options = Core.Coalesce.default_options) ?classes
    (ssa : Ir.func) =
  let classes =
    match classes with
    | Some cs -> cs
    | None -> Core.Coalesce.congruence_classes ~options ssa
  in
  match classes with
  | [] -> Ok ()
  | classes -> (
    (* Oracles run on an explicitly split copy of the input: the coalescer
       splits critical edges internally and register identities are
       unaffected, so class members name the same registers here. *)
    let f = Ir.Edge_split.run ssa in
    let cfg = Ir.Cfg.of_func f in
    try
      (* Oracle 1 — the paper's own interference test, exact per Theorem 2.2
         plus the Section-3.4 backward walk (Lemma 3.1 as an assertion). *)
      let dom = Analysis.Dominance.compute f cfg in
      let live = Analysis.Liveness.compute f cfg in
      let sites = Core.Interference.def_sites f in
      audit_pairs ~oracle:"precise"
        ~interferes:(fun u v -> Core.Interference.precise f dom live sites u v)
        classes;
      (* Oracle 2 — a full Chaitin interference graph over a φ-free
         rendering of the same SSA, computed by an independent
         implementation (non-SSA liveness, triangular bit matrix). The
         rendering must preserve every original name's SSA lifetime
         exactly, which Sreedhar's Method I does: each φ argument is read
         at the end of its predecessor and each φ target written at the top
         of its block, through fresh congruence names, with no cycle temps
         and no ordering interaction between copies. (The naive
         instantiation would NOT do: its sequentialized copy chains overlap
         class members mid-sequence — the virtual-swap artifact — yielding
         false interferences.) Original registers keep their ids, so class
         members remain meaningful. *)
      let inst = Baseline.Sreedhar.run_exn f in
      let icfg = Ir.Cfg.of_func inst in
      let ilive = Analysis.Liveness.compute inst icfg in
      let g = Baseline.Igraph.build_full inst icfg ilive in
      audit_pairs ~oracle:"igraph"
        ~interferes:(fun u v -> Baseline.Igraph.interferes g u v)
        classes;
      Ok ()
    with Found i -> Error i)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

(* Greedy delta debugging over the mini-language AST. Every candidate a
   variant sequence yields is smaller than its origin under the measure
   (node count, non-[Int 0] leaves), so committing to candidates one at a
   time terminates without any fuel bound; [max_rounds] is only a belt. *)

open Frontend.Ast

let rec expr_variants (e : expr) : expr Seq.t =
  let subs =
    match e with
    | Int _ | Float _ | Var _ -> []
    | Index (_, i) -> [ i ]
    | Unary (_, x) | Cast_float x | Cast_int x -> [ x ]
    | Binary (_, l, r) -> [ l; r ]
  in
  let literals =
    match e with
    | Int 0 -> []
    | Int _ | Float _ | Var _ -> [ Int 0 ]
    | _ -> [ Int 0; Int 1 ]
  in
  let nested =
    match e with
    | Int _ | Float _ | Var _ -> Seq.empty
    | Index (a, i) -> Seq.map (fun i' -> Index (a, i')) (expr_variants i)
    | Unary (op, x) -> Seq.map (fun x' -> Unary (op, x')) (expr_variants x)
    | Cast_float x -> Seq.map (fun x' -> Cast_float x') (expr_variants x)
    | Cast_int x -> Seq.map (fun x' -> Cast_int x') (expr_variants x)
    | Binary (op, l, r) ->
      Seq.append
        (Seq.map (fun l' -> Binary (op, l', r)) (expr_variants l))
        (Seq.map (fun r' -> Binary (op, l, r')) (expr_variants r))
  in
  (* Big jumps first (whole subexpressions, then literals), local rewrites
     last — the greedy loop then takes the largest reduction that still
     reproduces the failure. *)
  Seq.append (List.to_seq subs) (Seq.append (List.to_seq literals) nested)

let rec stmts_variants (ss : stmt list) : stmt list Seq.t =
  match ss with
  | [] -> Seq.empty
  | s :: rest ->
    Seq.append
      (Seq.return rest) (* drop the head statement entirely *)
      (Seq.append
         (Seq.map (fun s' -> s' @ rest) (stmt_variants s))
         (Seq.map (fun rest' -> s :: rest') (stmts_variants rest)))

and stmt_variants (s : stmt) : stmt list Seq.t =
  match s with
  | Assign (v, e) ->
    Seq.map (fun e' -> [ Assign (v, e') ]) (expr_variants e)
  | Store (a, i, e) ->
    Seq.append
      (Seq.map (fun e' -> [ Store (a, i, e') ]) (expr_variants e))
      (Seq.map (fun i' -> [ Store (a, i', e) ]) (expr_variants i))
  | Return None -> Seq.empty
  | Return (Some e) ->
    Seq.cons [ Return None ]
      (Seq.map (fun e' -> [ Return (Some e') ]) (expr_variants e))
  | If (c, t, e) ->
    Seq.append
      (List.to_seq [ t; e ]) (* unwrap to either branch *)
      (Seq.append
         (Seq.map (fun t' -> [ If (c, t', e) ]) (stmts_variants t))
         (Seq.append
            (Seq.map (fun e' -> [ If (c, t, e') ]) (stmts_variants e))
            (Seq.map (fun c' -> [ If (c', t, e) ]) (expr_variants c))))
  | While (c, b) ->
    Seq.cons b (* unwrap the body, dropping the loop *)
      (Seq.append
         (Seq.map (fun b' -> [ While (c, b') ]) (stmts_variants b))
         (Seq.map (fun c' -> [ While (c', b) ]) (expr_variants c)))

let shrink ?(max_rounds = max_int) ~keep (f : func) =
  let keep g = try keep g with _ -> false in
  let rec loop f rounds =
    if rounds <= 0 then f
    else
      let candidates =
        Seq.map (fun body -> { f with body }) (stmts_variants f.body)
      in
      match Seq.find keep candidates with
      | Some f' -> loop f' (rounds - 1)
      | None -> f
  in
  if keep f then loop f max_rounds else f

(* ------------------------------------------------------------------ *)
(* Exception-raising variants for the pipeline hook                   *)
(* ------------------------------------------------------------------ *)

exception Failed of string

let equiv_exn ?vectors ?ignore_arrays ~reference candidate =
  match equiv ?vectors ?ignore_arrays ~reference candidate with
  | Ok () -> ()
  | Error m ->
    raise
      (Failed
         (Format.asprintf
            "Check.equiv: %s is not equivalent to its input:@,%a"
            candidate.Ir.name pp_mismatch m))

let interference_audit_exn ?options ssa =
  match interference_audit ?options ssa with
  | Ok () -> ()
  | Error i ->
    raise
      (Failed
         (Format.asprintf "Check.interference_audit: %s: %a" ssa.Ir.name
            pp_interference i))
