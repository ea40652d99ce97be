module Cfg = Ir.Cfg

(* Everything here is deliberately Hashtbl-shaped: label-keyed outer
   tables, register-keyed inner sets. The algorithm mirrors Liveness's
   worklist solver so any divergence between the two is a bug in exactly
   one of the representations. *)

type set = (Ir.reg, unit) Hashtbl.t

type t = {
  live_in : (Ir.label, set) Hashtbl.t;
  live_out : (Ir.label, set) Hashtbl.t;
}

let find_set tbl l : set =
  match Hashtbl.find_opt tbl l with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 8 in
    Hashtbl.add tbl l s;
    s

let set_mem (s : set) r = Hashtbl.mem s r

(* Add every element of [src] to [dst]; true if [dst] grew. *)
let set_union_into ~(dst : set) (src : set) =
  let grew = ref false in
  Hashtbl.iter
    (fun r () ->
      if not (Hashtbl.mem dst r) then begin
        Hashtbl.replace dst r ();
        grew := true
      end)
    src;
  !grew

let compute (f : Ir.func) cfg =
  let live_in = Hashtbl.create 16 in
  let live_out = Hashtbl.create 16 in
  let gen = Hashtbl.create 16 in
  let kill = Hashtbl.create 16 in
  Array.iter
    (fun (b : Ir.block) ->
      let l = b.label in
      let g = find_set gen l and k = find_set kill l in
      List.iter (fun (p : Ir.phi) -> Hashtbl.replace k p.dst ()) b.phis;
      List.iter
        (fun i ->
          List.iter
            (fun r -> if not (set_mem k r) then Hashtbl.replace g r ())
            (Ir.uses i);
          Option.iter (fun d -> Hashtbl.replace k d ()) (Ir.def i))
        b.body;
      List.iter
        (fun r -> if not (set_mem k r) then Hashtbl.replace g r ())
        (Ir.term_uses b.term))
    f.blocks;
  (* φ argument registers are uses at the end of the predecessor they flow
     out of: seed them straight into the predecessor's live-out. *)
  Array.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (pl, op) ->
              List.iter
                (fun r -> Hashtbl.replace (find_set live_out pl) r ())
                (Ir.operand_uses op))
            p.args)
        b.phis)
    f.blocks;
  let worklist = Queue.create () in
  let on_list = Hashtbl.create 16 in
  let push l =
    if not (Hashtbl.mem on_list l) then begin
      Hashtbl.replace on_list l ();
      Queue.add l worklist
    end
  in
  Array.iter push (Cfg.postorder cfg);
  while not (Queue.is_empty worklist) do
    let l = Queue.pop worklist in
    Hashtbl.remove on_list l;
    let out = find_set live_out l in
    List.iter
      (fun s -> ignore (set_union_into ~dst:out (find_set live_in s)))
      (Cfg.succs_list cfg l);
    let inb = find_set live_in l in
    let k = find_set kill l in
    let grew = ref (set_union_into ~dst:inb (find_set gen l)) in
    Hashtbl.iter
      (fun r () ->
        if (not (set_mem k r)) && not (set_mem inb r) then begin
          Hashtbl.replace inb r ();
          grew := true
        end)
      out;
    if !grew then List.iter push (Cfg.preds_list cfg l)
  done;
  { live_in; live_out }

let elements tbl l =
  match Hashtbl.find_opt tbl l with
  | None -> []
  | Some s ->
    List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) s [])

let live_in t l = elements t.live_in l
let live_out t l = elements t.live_out l
