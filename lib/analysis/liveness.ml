open Support
module Cfg = Ir.Cfg
module M = Bitset.Matrix

(* One matrix per set, one row per block, one column per name that crosses
   a block boundary. [index] is one arena buffer: cell [r < nregs] holds
   register [r]'s column (or -1), cell [nregs + c] column [c]'s register.
   While the walk runs, cells [2 nregs + r] are its stamps. *)
type t = {
  live_in : M.t;
  live_out : M.t;
  index : int array;
  width : int;
  nregs : int;
  blocks : int;
}

(* The block walk's state. [map] becomes the result's [index]; cells
   [2 nregs + r] of it are the walk's stamps: [stamp] for an
   upward-exposed use of [r] in the block being walked, [stamp + 1] for a
   definition, both below 0 before the walk and lower in earlier blocks.
   [buf] is the flat arena buffer the walk appends to. *)
type walk = {
  map : int array;
  regs : int;
  mutable columns : int;
  mutable buf : int array;
  mutable len : int;
  mutable stamp : int;
  scratch : Scratch.t;
}

let append w x =
  if w.len = Array.length w.buf then w.buf <- Scratch.grow_ints w.scratch w.buf;
  Array.unsafe_set w.buf w.len x;
  w.len <- w.len + 1

let column w r =
  let c = w.map.(r) in
  if c >= 0 then c
  else begin
    let c = w.columns in
    w.map.(r) <- c;
    w.map.(w.regs + c) <- r;
    w.columns <- c + 1;
    c
  end

let check w r =
  if r < 0 || r >= w.regs then invalid_arg "Liveness: register out of range"

(* [check] bounds [r], so its stamp cell is in [map]. *)
let use w = function
  | Ir.Reg r ->
    check w r;
    let s = (2 * w.regs) + r in
    if Array.unsafe_get w.map s < w.stamp then begin
      Array.unsafe_set w.map s w.stamp;
      append w (column w r)
    end
  | Ir.Const _ -> ()

let def w r =
  check w r;
  let s = (2 * w.regs) + r in
  if Array.unsafe_get w.map s <> w.stamp + 1 then begin
    Array.unsafe_set w.map s (w.stamp + 1);
    append w (lnot r)
  end

(* φ targets are kills at the block top; φ arguments are charged to the
   predecessor, not here. Operands are matched in place and lists walked
   by direct recursion, so the walk allocates nothing. *)
let rec phi_defs w = function
  | [] -> ()
  | (p : Ir.phi) :: rest ->
    def w p.dst;
    phi_defs w rest

let rec body w = function
  | [] -> ()
  | (i : Ir.instr) :: rest ->
    (match i with
    | Copy { dst; src } | Unop { dst; src; _ } ->
      use w src;
      def w dst
    | Binop { dst; l; r; _ } ->
      use w l;
      use w r;
      def w dst
    | Load { dst; idx; _ } ->
      use w idx;
      def w dst
    | Store { idx; src; _ } ->
      use w idx;
      use w src);
    body w rest

let rec phi_args w = function
  | [] -> ()
  | (pl, Ir.Reg r) :: rest ->
    check w r;
    append w pl;
    append w (column w r);
    phi_args w rest
  | (_, Ir.Const _) :: rest -> phi_args w rest

(* Backward worklist solver over the non-local names. A name that is not
   upward-exposed in any block and is no φ argument is in no live-in set
   (every use follows a definition in its own block) and so in no live-out
   set: liveness is exact per variable, and solving over the other names
   gives the same sets on them.

   One walk over the reachable blocks finds those names and the per-block
   facts at once. A register gets a column at its first upward-exposed
   use. Each walked block appends to one flat arena buffer a count, then
   an entry per upward-exposed use (its column, ≥ 0) and per definition
   (lnot the register, < 0), each register at most once of each kind.
   (predecessor, column) pairs for the φ arguments follow the blocks. Once
   the width is known, the φ seeds go into live-out, and each block's
   gen and kill come from the buffer at its first pop; there is no gen
   matrix. The sets only ever grow (the framework starts from bottom and
   every transfer is monotone), so both equations accumulate in place
   with row unions:

     live_out(l) ⊇ phi_out(l) ∪ ⋃ live_in(succ)   (phi_out seeds live_out)
     live_in(l)  ⊇ gen(l) ∪ (live_out(l) \ kill(l))

   Blocks are seeded in postorder (successors first, the natural order for
   a backward problem); a block re-enters the worklist only when the
   live-in of one of its successors actually grew. *)
let compute_into ~scratch ?obs (f : Ir.func) cfg =
  let n = Ir.num_blocks f in
  let nregs = f.nregs in
  let po = Cfg.postorder cfg in
  let index = Scratch.acquire_ints scratch (3 * nregs) in
  Array.fill index 0 nregs (-1);
  Array.fill index (2 * nregs) nregs (-1);
  let w =
    {
      map = index;
      regs = nregs;
      columns = 0;
      buf = Scratch.acquire_ints scratch ((2 * n) + nregs);
      len = 0;
      stamp = 0;
      scratch;
    }
  in
  for i = 0 to Array.length po - 1 do
    let b = f.blocks.(po.(i)) in
    w.stamp <- 2 * i;
    let at = w.len in
    append w 0;
    phi_defs w b.phis;
    body w b.body;
    (match b.term with
    | Branch { cond = op; _ } | Return (Some op) -> use w op
    | Jump _ | Return None -> ());
    w.buf.(at) <- w.len - at - 1
  done;
  (* φ argument registers are uses at the end of the predecessor they flow
     out of, seeded straight into its live-out. *)
  let phi_at = w.len in
  Array.iter
    (fun (b : Ir.block) -> List.iter (fun (p : Ir.phi) -> phi_args w p.args) b.phis)
    f.blocks;
  let width = w.columns in
  let matrix () = Scratch.acquire_matrix scratch ~rows:n width in
  let live_in = matrix () in
  let live_out = matrix () in
  let kill = matrix () in
  let buf = w.buf in
  let j = ref phi_at in
  while !j < w.len do
    M.add live_out buf.(!j) buf.(!j + 1);
    j := !j + 2
  done;
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
  (* The first [Array.length po] pops take the blocks in postorder, the
     walk's order, so [group] steps through the buffer's blocks. A block's
     first pop adds its kills and its upward-exposed uses, to a live-in row
     no pop has written yet: gen's union, which grows the row iff the block
     has such a use, and which no later pop could grow. *)
  let pops = ref 0 and group = ref 0 in
  while !head <> !tail do
    let l = queue.(!head) in
    head := (!head + 1) mod (n + 1);
    on_list.(l) <- 0;
    incr pops;
    for i = 0 to Cfg.num_succs cfg l - 1 do
      ignore (M.union_into live_out l live_in (Cfg.succ cfg l i))
    done;
    let grew_gen = ref false in
    if !pops <= Array.length po then begin
      let last = !group + buf.(!group) in
      for e = !group + 1 to last do
        let x = buf.(e) in
        if x >= 0 then begin
          M.add live_in l x;
          grew_gen := true
        end
        else begin
          let c = index.(lnot x) in
          if c >= 0 then M.add kill l c
        end
      done;
      group := last + 1
    end;
    let grew_out = M.union_diff_into live_in l live_out l kill l in
    if !grew_gen || grew_out then
      for i = 0 to Cfg.num_preds cfg l - 1 do
        push (Cfg.pred cfg l i)
      done
  done;
  Scratch.release_ints scratch buf;
  Scratch.release_matrix scratch kill;
  Scratch.release_int_array scratch queue;
  Scratch.release_int_array scratch on_list;
  Option.iter (fun o -> Obs.add o Obs.Liveness_worklist_pops !pops) obs;
  { live_in; live_out; index; width; nregs; blocks = n }

let compute ?obs f cfg = compute_into ~scratch:(Scratch.create ()) ?obs f cfg

let release scratch t =
  Scratch.release_matrix scratch t.live_in;
  Scratch.release_matrix scratch t.live_out;
  Scratch.release_ints scratch t.index

let width t = t.width

(* Register [r]'s column, or -1. *)
let column_of t r =
  if r < 0 || r >= t.nregs then invalid_arg "Liveness: register out of range";
  t.index.(r)

(* Overwrite [dst] with row [l] of [m], in register coordinates. *)
let blit_row t m l dst =
  if Bitset.capacity dst <> t.nregs then invalid_arg "Liveness: set capacity";
  Bitset.clear dst;
  M.scatter_row m l ~map:t.index ~off:t.nregs dst

let blit_live_in t l dst = blit_row t t.live_in l dst
let blit_live_out t l dst = blit_row t t.live_out l dst

let fresh_row t m l =
  let s = Bitset.create t.nregs in
  blit_row t m l s;
  s

let live_in t l = fresh_row t t.live_in l
let live_out t l = fresh_row t t.live_out l

let live_in_mem t l r =
  let c = column_of t r in
  c >= 0 && M.mem t.live_in l c

let live_out_mem t l r =
  let c = column_of t r in
  c >= 0 && M.mem t.live_out l c

let model_bytes ~blocks ~nregs = 2 * blocks * ((nregs + 7) / 8)
let memory_bytes t = model_bytes ~blocks:t.blocks ~nregs:t.nregs

let interfere_at_bounds t v1 b1 v2 b2 = live_in_mem t b2 v1 || live_in_mem t b1 v2
