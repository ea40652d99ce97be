type reg = int
type label = int

type value = Int of int | Float of float

type operand = Reg of reg | Const of value

type binop =
  | Add | Sub | Mul | Div | Mod
  | Flt_add | Flt_sub | Flt_mul | Flt_div
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not | Int_to_float | Float_to_int

type instr =
  | Copy of { dst : reg; src : operand }
  | Unop of { op : unop; dst : reg; src : operand }
  | Binop of { op : binop; dst : reg; l : operand; r : operand }
  | Load of { dst : reg; arr : string; idx : operand }
  | Store of { arr : string; idx : operand; src : operand }

type phi = {
  dst : reg;
  args : (label * operand) list;
}

type terminator =
  | Jump of label
  | Branch of { cond : operand; if_true : label; if_false : label }
  | Return of operand option

type block = {
  label : label;
  phis : phi list;
  body : instr list;
  term : terminator;
}

type func = {
  name : string;
  params : reg list;
  entry : label;
  blocks : block array;
  nregs : int;
  names : Names.t;
}

let def = function
  | Copy { dst; _ } | Unop { dst; _ } | Binop { dst; _ } | Load { dst; _ } ->
    Some dst
  | Store _ -> None

let operand_uses = function Reg r -> [ r ] | Const _ -> []

let uses = function
  | Copy { src; _ } | Unop { src; _ } -> operand_uses src
  | Binop { l; r; _ } -> operand_uses l @ operand_uses r
  | Load { idx; _ } -> operand_uses idx
  | Store { idx; src; _ } -> operand_uses idx @ operand_uses src

let map_operand f = function Reg r -> f r | Const _ as c -> c

let map_instr_uses f = function
  | Copy { dst; src } -> Copy { dst; src = map_operand f src }
  | Unop { op; dst; src } -> Unop { op; dst; src = map_operand f src }
  | Binop { op; dst; l; r } ->
    Binop { op; dst; l = map_operand f l; r = map_operand f r }
  | Load { dst; arr; idx } -> Load { dst; arr; idx = map_operand f idx }
  | Store { arr; idx; src } ->
    Store { arr; idx = map_operand f idx; src = map_operand f src }

let map_instr_def f = function
  | Copy { dst; src } -> Copy { dst = f dst; src }
  | Unop { op; dst; src } -> Unop { op; dst = f dst; src }
  | Binop { op; dst; l; r } -> Binop { op; dst = f dst; l; r }
  | Load { dst; arr; idx } -> Load { dst = f dst; arr; idx }
  | Store _ as s -> s

let term_uses = function
  | Jump _ -> []
  | Branch { cond; _ } -> operand_uses cond
  | Return (Some op) -> operand_uses op
  | Return None -> []

let map_term_uses f = function
  | Jump _ as t -> t
  | Branch { cond; if_true; if_false } ->
    Branch { cond = map_operand f cond; if_true; if_false }
  | Return (Some op) -> Return (Some (map_operand f op))
  | Return None -> Return None

let successors = function
  | Jump l -> [ l ]
  | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Return _ -> []

let map_successors f = function
  | Jump l -> Jump (f l)
  | Branch { cond; if_true; if_false } ->
    Branch { cond; if_true = f if_true; if_false = f if_false }
  | Return _ as t -> t

let block f l = f.blocks.(l)
let num_blocks f = Array.length f.blocks

let iter_instrs f g =
  Array.iter (fun b -> List.iter (fun i -> g b.label i) b.body) f.blocks

let iter_phis f g =
  Array.iter (fun b -> List.iter (fun p -> g b.label p) b.phis) f.blocks

let defs_of_block b =
  List.map (fun (p : phi) -> p.dst) b.phis
  @ List.filter_map def b.body

let count_copies f =
  let n = ref 0 in
  iter_instrs f (fun _ i -> match i with Copy _ -> incr n | _ -> ());
  !n

let count_instrs f =
  Array.fold_left
    (fun acc b -> acc + List.length b.phis + List.length b.body + 1)
    0 f.blocks

let count_phi_args f =
  let n = ref 0 in
  iter_phis f (fun _ p -> n := !n + List.length p.args);
  !n

let rec name_in names r =
  match Names.view names r with
  | Names.Unnamed -> "r" ^ string_of_int r
  | Given s -> s
  | Version { base; origin; version } ->
    name_in base origin ^ "." ^ string_of_int version
  | Temp { prefix; numbered } ->
    if numbered then prefix ^ string_of_int r else prefix

let reg_name f r = name_in f.names r

(* Word-count model of the in-memory representation: a block record and its
   two lists, ~6 words per instruction record plus operands, 4 words per phi
   argument cons/pair, 2 words per register of metadata. *)
let estimated_bytes f =
  let per_block = 64 in
  let per_instr = 48 in
  let per_phi = 32 in
  let per_phi_arg = 32 in
  let per_reg = 16 in
  let instrs = ref 0 and phis = ref 0 and args = ref 0 in
  Array.iter
    (fun b ->
      instrs := !instrs + List.length b.body;
      phis := !phis + List.length b.phis;
      List.iter (fun (p : phi) -> args := !args + List.length p.args) b.phis)
    f.blocks;
  (per_block * Array.length f.blocks)
  + (per_instr * !instrs) + (per_phi * !phis) + (per_phi_arg * !args)
  + (per_reg * f.nregs)

let with_blocks f blocks = { f with blocks }
let map_blocks g f = { f with blocks = Array.map g f.blocks }
