open Support
module Cfg = Ir.Cfg

type t = {
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

let compute (f : Ir.func) cfg =
  let n = Ir.num_blocks f in
  let nr = f.nregs in
  let live_in = Array.init n (fun _ -> Bitset.create nr) in
  let live_out = Array.init n (fun _ -> Bitset.create nr) in
  (* Defining block of every register. Parameters keep -1: the dataflow
     version has no kill for them in the entry, so they appear in the
     entry's live-in when used — match that convention. *)
  let def_block = Array.make nr (-1) in
  Array.iter
    (fun (b : Ir.block) ->
      List.iter (fun (p : Ir.phi) -> def_block.(p.dst) <- b.label) b.phis;
      List.iter
        (fun i -> Option.iter (fun d -> def_block.(d) <- b.label) (Ir.def i))
        b.body)
    f.blocks;
  (* Walk v live-in at block l upward through the predecessors until its
     defining block stops the walk (the def does not make v live-in). *)
  let rec mark_live_in v l =
    if
      Cfg.reachable cfg l && def_block.(v) <> l
      && not (Bitset.mem live_in.(l) v)
    then begin
      Bitset.add live_in.(l) v;
      Cfg.iter_preds cfg l (fun p -> mark_live_out v p)
    end
  and mark_live_out v l =
    if Cfg.reachable cfg l && not (Bitset.mem live_out.(l) v) then begin
      Bitset.add live_out.(l) v;
      if def_block.(v) <> l then mark_live_in_force v l
    end
  and mark_live_in_force v l =
    if not (Bitset.mem live_in.(l) v) then begin
      Bitset.add live_in.(l) v;
      Cfg.iter_preds cfg l (fun p -> mark_live_out v p)
    end
  in
  (* Per-block kill tracking as a stamp array: [killed.(v) = l] means v is
     defined in block l above the current scan point — no per-block table
     allocation. *)
  let killed = Array.make nr (-1) in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then begin
        (* φ arguments are uses at the end of the predecessor. *)
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (pl, op) ->
                List.iter (fun v -> mark_live_out v pl) (Ir.operand_uses op))
              p.args)
          b.phis;
        (* Ordinary uses are live into this block unless defined here
           earlier; the backward scan finds upward-exposed ones. *)
        let l = b.label in
        List.iter (fun (p : Ir.phi) -> killed.(p.dst) <- l) b.phis;
        List.iter
          (fun i ->
            List.iter
              (fun v -> if killed.(v) <> l then mark_live_in v l)
              (Ir.uses i);
            Option.iter (fun d -> killed.(d) <- l) (Ir.def i))
          b.body;
        List.iter
          (fun v -> if killed.(v) <> l then mark_live_in v l)
          (Ir.term_uses b.term)
      end)
    f.blocks;
  { live_in; live_out }

let live_in t l = t.live_in.(l)
let live_out t l = t.live_out.(l)
