module Dominance = Analysis.Dominance

type node = {
  var : Ir.reg;
  block : Ir.label;
  def_index : int;
  mutable children : node list;
}

type t = node list

(* The paper sorts set members by preorder number with a radix sort to keep
   construction linear (Section 3.7: "the number of variables in the join
   set cannot be greater than the number of basic blocks"). [build_all]
   sorts the members of every class of a function in one counting sort by
   preorder — one pass over the members plus one over the preorder numbers
   for the whole function — and orders the (rare) same-block
   members by definition index inside their bucket, stably, so each class
   comes out in increasing preorder with ties in input order. *)
let sort_classes dom classes =
  let pre (_, b, _) =
    let p = Dominance.preorder dom b in
    if p < 0 then invalid_arg "Dominance_forest.build: unreachable defining block";
    p
  in
  let maxpre = ref (-1) and total = ref 0 in
  Array.iter
    (List.iter (fun m ->
         let p = pre m in
         if p > !maxpre then maxpre := p;
         incr total))
    classes;
  (* [start.(p)] is where bucket [p] begins in [slots]. *)
  let start = Array.make (!maxpre + 2) 0 in
  Array.iter (List.iter (fun m -> start.(pre m + 1) <- start.(pre m + 1) + 1)) classes;
  for p = 1 to !maxpre + 1 do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let next = Array.sub start 0 (!maxpre + 1) in
  let slots = Array.make !total (0, (0, 0, 0)) in
  Array.iteri
    (fun c members ->
      List.iter
        (fun m ->
          let p = pre m in
          slots.(next.(p)) <- (c, m);
          next.(p) <- next.(p) + 1)
        members)
    classes;
  for p = 0 to !maxpre do
    let len = start.(p + 1) - start.(p) in
    if len > 1 then begin
      let bucket = Array.sub slots start.(p) len in
      Array.stable_sort (fun (_, (_, _, i1)) (_, (_, _, i2)) -> compare i1 i2) bucket;
      Array.blit bucket 0 slots start.(p) len
    end
  done;
  let sorted = Array.make (Array.length classes) [] in
  for k = !total - 1 downto 0 do
    let c, m = slots.(k) in
    sorted.(c) <- m :: sorted.(c)
  done;
  sorted

(* Figure 1 of the paper, with the VirtualRoot replaced by an empty stack:
   members are taken in increasing preorder; the stack holds the current
   chain of open ancestors; a member whose preorder exceeds the max-preorder
   of the stack top cannot be dominated by it, so the top is closed. *)
let forest dom sorted =
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun (var, block, def_index) ->
      let n = { var; block; def_index; children = [] } in
      let pre = Dominance.preorder dom block in
      let rec close () =
        match !stack with
        | top :: rest when pre > Dominance.max_preorder dom top.block ->
          stack := rest;
          close ()
        | _ -> ()
      in
      close ();
      (match !stack with
      | [] -> roots := n :: !roots
      | parent :: _ -> parent.children <- n :: parent.children);
      stack := n :: !stack)
    sorted;
  let rec reverse_children n =
    n.children <- List.rev n.children;
    List.iter reverse_children n.children
  in
  let roots = List.rev !roots in
  List.iter reverse_children roots;
  roots

let build_all dom classes = Array.map (forest dom) (sort_classes dom classes)
let build dom members = (build_all dom [| members |]).(0)

let iter_edges t f =
  let rec visit parent =
    List.iter
      (fun child ->
        f parent child;
        visit child)
      parent.children
  in
  List.iter visit t

let size t =
  let rec count n = 1 + List.fold_left (fun acc c -> acc + count c) 0 n.children in
  List.fold_left (fun acc n -> acc + count n) 0 t

let num_edges t =
  let n = ref 0 in
  iter_edges t (fun _ _ -> incr n);
  !n

let pp f ppf t =
  let rec pp_node indent n =
    Format.fprintf ppf "%s%s (b%d)@," indent (Ir.reg_name f n.var) n.block;
    List.iter (pp_node (indent ^ "  ")) n.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp_node "") t;
  Format.fprintf ppf "@]"
