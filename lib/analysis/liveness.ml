open Support
module Cfg = Ir.Cfg
module M = Bitset.Matrix

(* One matrix per set, one row per block. *)
type t = {
  live_in : M.t;
  live_out : M.t;
}

(* A use of [r] in block [l] is upward-exposed unless [l] killed [r]
   above it. *)
let use ~gen ~kill l r = if not (M.mem kill l r) then M.add gen l r
let use_op ~gen ~kill l = function Ir.Reg r -> use ~gen ~kill l r | Ir.Const _ -> ()

(* Backward worklist solver. The sets only ever grow (the framework starts
   from bottom and every transfer is monotone), so both equations can be
   accumulated in place with row unions — no per-block copies, no
   temporary set and no equality scans per sweep:

     live_out(l) ⊇ phi_out(l) ∪ ⋃ live_in(succ)   (phi_out seeds live_out)
     live_in(l)  ⊇ gen(l) ∪ (live_out(l) \ kill(l))

   Blocks are seeded in postorder (successors first, the natural order for
   a backward problem); a block re-enters the worklist only when the
   live-in of one of its successors actually grew. *)
let compute_into ~scratch ?obs (f : Ir.func) cfg =
  let n = Ir.num_blocks f in
  let matrix () = Scratch.acquire_matrix scratch ~rows:n f.nregs in
  let live_in = matrix () in
  let live_out = matrix () in
  (* Upward-exposed uses and kills per reachable block (an unreachable block
     is never visited). φ arguments are charged to the predecessor below,
     not here; φ targets are kills at the block top. Operands are matched
     in place, so the scan allocates nothing. *)
  let gen = matrix () in
  let kill = matrix () in
  let po = Cfg.postorder cfg in
  Array.iter
    (fun l ->
      let b = f.blocks.(l) in
      List.iter (fun (p : Ir.phi) -> M.add kill l p.dst) b.phis;
      List.iter
        (fun (i : Ir.instr) ->
          match i with
          | Copy { dst; src } | Unop { dst; src; _ } ->
            use_op ~gen ~kill l src;
            M.add kill l dst
          | Binop { dst; l = a; r = c; _ } ->
            use_op ~gen ~kill l a;
            use_op ~gen ~kill l c;
            M.add kill l dst
          | Load { dst; idx; _ } ->
            use_op ~gen ~kill l idx;
            M.add kill l dst
          | Store { idx; src; _ } ->
            use_op ~gen ~kill l idx;
            use_op ~gen ~kill l src)
        b.body;
      match b.term with
      | Branch { cond = op; _ } | Return (Some op) -> use_op ~gen ~kill l op
      | Jump _ | Return None -> ())
    po;
  (* φ argument registers are uses at the end of the predecessor they flow
     out of: seed them straight into the predecessor's live-out. *)
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              match op with Ir.Reg r -> M.add live_out pl r | Ir.Const _ -> ())
            p.args)
        b.phis)
    f.blocks;
  (* Ring-buffer worklist; [on_list] dedups, so it holds ≤ n entries. *)
  let queue = Scratch.acquire_int_array scratch (n + 1) 0 in
  let on_list = Scratch.acquire_int_array scratch n 0 in
  let head = ref 0 and tail = ref 0 in
  let push l =
    if on_list.(l) = 0 then begin
      on_list.(l) <- 1;
      queue.(!tail) <- l;
      tail := (!tail + 1) mod (n + 1)
    end
  in
  Array.iter push po;
  let pops = ref 0 in
  while !head <> !tail do
    let l = queue.(!head) in
    head := (!head + 1) mod (n + 1);
    on_list.(l) <- 0;
    incr pops;
    for i = 0 to Cfg.num_succs cfg l - 1 do
      ignore (M.union_into live_out l live_in (Cfg.succ cfg l i))
    done;
    let grew_gen = M.union_into live_in l gen l in
    let grew_out = M.union_diff_into live_in l live_out l kill l in
    if grew_gen || grew_out then
      for i = 0 to Cfg.num_preds cfg l - 1 do
        push (Cfg.pred cfg l i)
      done
  done;
  Scratch.release_matrix scratch gen;
  Scratch.release_matrix scratch kill;
  Scratch.release_int_array scratch queue;
  Scratch.release_int_array scratch on_list;
  Option.iter (fun o -> Obs.add o Obs.Liveness_worklist_pops !pops) obs;
  { live_in; live_out }

let compute ?obs f cfg = compute_into ~scratch:(Scratch.create ()) ?obs f cfg

let release scratch t =
  Scratch.release_matrix scratch t.live_in;
  Scratch.release_matrix scratch t.live_out

let live_in t l = M.row t.live_in l
let live_out t l = M.row t.live_out l
let live_in_mem t l r = M.mem t.live_in l r
let live_out_mem t l r = M.mem t.live_out l r
let memory_bytes t = M.memory_bytes t.live_in + M.memory_bytes t.live_out

let interfere_at_bounds t v1 b1 v2 b2 =
  ignore b1;
  ignore b2;
  M.mem t.live_in b2 v1 || M.mem t.live_in b1 v2
