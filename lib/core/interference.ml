open Support
module Liveness = Analysis.Liveness
module Dominance = Analysis.Dominance

type def_site = {
  block : Ir.label;
  index : int;
}

let def_sites (f : Ir.func) =
  let sites = Array.make f.nregs None in
  let record r site =
    match sites.(r) with
    | Some _ ->
      invalid_arg
        (Printf.sprintf "Interference.def_sites: %s multiply defined"
           (Ir.reg_name f r))
    | None -> sites.(r) <- Some site
  in
  List.iter (fun p -> record p { block = f.entry; index = -1 }) f.params;
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) -> record p.dst { block = b.label; index = -1 })
        b.phis;
      List.iteri
        (fun i instr ->
          Option.iter (fun d -> record d { block = b.label; index = i }) (Ir.def instr))
        b.body)
    f.blocks;
  sites

(* The liveness transfer of one instruction, bottom-up: its definition
   dies, its operands become live. *)
let use set = function Ir.Reg r -> Bitset.add set r | Ir.Const _ -> ()

let transfer set (i : Ir.instr) =
  match i with
  | Copy { dst; src } | Unop { dst; src; _ } ->
    Bitset.remove set dst;
    use set src
  | Binop { dst; l; r; _ } ->
    Bitset.remove set dst;
    use set l;
    use set r
  | Load { dst; idx; _ } ->
    Bitset.remove set dst;
    use set idx
  | Store { idx; src; _ } ->
    use set idx;
    use set src

let live_just_after_all ?into (f : Ir.func) live queries =
  let answers = Array.make (Array.length queries) false in
  (* Queries grouped by block, deepest definition point first. *)
  let order = Array.init (Array.length queries) Fun.id in
  let site k = snd queries.(k) in
  Array.stable_sort
    (fun a b ->
      let sa = site a and sb = site b in
      if sa.block <> sb.block then compare sa.block sb.block
      else compare sb.index sa.index)
    order;
  let set =
    match into with Some s -> s | None -> Bitset.create f.nregs
  in
  let next = ref 0 in
  (* Answer the queries at index [i] of the current block from [set]. *)
  let answer block i =
    while
      !next < Array.length order
      && (site order.(!next)).block = block
      && (site order.(!next)).index = i
    do
      let k = order.(!next) in
      answers.(k) <- Bitset.mem set (fst queries.(k));
      incr next
    done
  in
  while !next < Array.length order do
    let block = (site order.(!next)).block in
    let b = f.blocks.(block) in
    Liveness.blit_live_out live block set;
    (match b.term with
    | Branch { cond = op; _ } | Return (Some op) -> use set op
    | Jump _ | Return None -> ());
    (* Walk the body bottom-up by applying each instruction's transfer on
       the way back out of the recursion: the set is the live set just
       after instruction [i] when [i]'s queries are answered. The walk
       stops transferring once the block has no query left. *)
    let rec walk i = function
      | [] -> ()
      | instr :: rest ->
        walk (i + 1) rest;
        if !next < Array.length order && (site order.(!next)).block = block then begin
          answer block i;
          transfer set instr
        end
    in
    walk 0 b.body;
    (* The φ/parameter point at the top of the block. *)
    answer block (-1);
    (* A query left in this block names a point outside it. *)
    if !next < Array.length order && (site order.(!next)).block = block then
      invalid_arg
        (Printf.sprintf
           "Interference.live_just_after: index %d outside block %d"
           (site order.(!next)).index block)
  done;
  answers

let live_just_after ?into f live ~reg ~at =
  (live_just_after_all ?into f live [| (reg, at) |]).(0)

let precise (f : Ir.func) dom live sites v1 v2 =
  if v1 = v2 then false
  else
    match sites.(v1), sites.(v2) with
    | None, _ | _, None -> false
    | Some d1, Some d2 ->
      let check ~earlier ~later_site =
        live_just_after f live ~reg:earlier ~at:later_site
      in
      if d1.block = d2.block then
        if d1.index < d2.index then check ~earlier:v1 ~later_site:d2
        else if d2.index < d1.index then check ~earlier:v2 ~later_site:d1
        else
          (* Two φ-nodes (or parameters) of the same block: both defined in
             parallel at the top; they clash iff both are live there. *)
          check ~earlier:v1 ~later_site:d2 && check ~earlier:v2 ~later_site:d1
      else if Dominance.strictly_dominates dom d1.block d2.block then
        check ~earlier:v1 ~later_site:d2
      else if Dominance.strictly_dominates dom d2.block d1.block then
        check ~earlier:v2 ~later_site:d1
      else false
