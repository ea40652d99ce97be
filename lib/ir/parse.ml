exception Error of string * int

let fail line fmt = Printf.ksprintf (fun m -> raise (Error (m, line))) fmt

(* ------------------------------------------------------------------ *)
(* Line-based scanning: the printer emits one construct per line.      *)
(* ------------------------------------------------------------------ *)

type line = {
  num : int;
  text : string;
  comment : string;  (* text after '#', trimmed; the printer uses it for
                        the entry label *)
}

(* One pass over the input: each line's code part is trimmed (the
   whitespace set of String.trim) and cut at '#', and the text after '#'
   is kept, trimmed, as the comment. Blank code lines are dropped. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let trimmed s i j =
  let i = ref i and j = ref j in
  while !i < !j && is_space (String.unsafe_get s !i) do incr i done;
  while !j > !i && is_space (String.unsafe_get s (!j - 1)) do decr j done;
  (!i, !j)

let lines_of_string s =
  let n = String.length s in
  let rec go start num acc =
    if start > n then List.rev acc
    else begin
      let stop =
        match String.index_from_opt s start '\n' with Some e -> e | None -> n
      in
      let code_end = ref start in
      while !code_end < stop && String.unsafe_get s !code_end <> '#' do
        incr code_end
      done;
      let code_end = !code_end in
      let i, j = trimmed s start code_end in
      let acc =
        if i = j then acc
        else
          let comment =
            if code_end = stop then ""
            else
              let ci, cj = trimmed s (code_end + 1) stop in
              String.sub s ci (cj - ci)
          in
          { num; text = String.sub s i (j - i); comment } :: acc
      in
      go (stop + 1) (num + 1) acc
    end
  in
  go 0 1 []

(* Tokens within a line: names, numbers, punctuation. *)
let punct = function
  | ':' -> ":" | ',' -> "," | '[' -> "[" | ']' -> "]" | '(' -> "(" | ')' -> ")"
  | '{' -> "{" | _ -> "}"

let tokenize_line l =
  let s = l.text in
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '$'
  in
  let is_num_start c = (c >= '0' && c <= '9') || c = '-' in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' then incr i
    else if c = ':' && !i + 1 < n && s.[!i + 1] = '=' then begin
      toks := ":=" :: !toks;
      i := !i + 2
    end
    else if c = ':' || c = ',' || c = '[' || c = ']' || c = '(' || c = ')'
            || c = '{' || c = '}' then begin
      toks := punct c :: !toks;
      incr i
    end
    else if is_num_start c then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_name_char s.[!j] || s.[!j] = '+' || s.[!j] = '-')
        && (s.[!j] <> '-' || (s.[!j - 1] = 'e' || s.[!j - 1] = 'E'))
      do
        incr j
      done;
      toks := String.sub s !i (!j - !i) :: !toks;
      i := !j
    end
    else if is_name_char c then begin
      let j = ref !i in
      while !j < n && is_name_char s.[!j] do
        incr j
      done;
      toks := String.sub s !i (!j - !i) :: !toks;
      i := !j
    end
    else fail l.num "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parsing proper                                                      *)
(* ------------------------------------------------------------------ *)

let binops =
  [
    ("add", Mir.Add); ("sub", Mir.Sub); ("mul", Mir.Mul); ("div", Mir.Div);
    ("mod", Mir.Mod); ("fadd", Mir.Flt_add); ("fsub", Mir.Flt_sub);
    ("fmul", Mir.Flt_mul); ("fdiv", Mir.Flt_div); ("lt", Mir.Lt);
    ("le", Mir.Le); ("gt", Mir.Gt); ("ge", Mir.Ge); ("eq", Mir.Eq);
    ("ne", Mir.Ne); ("and", Mir.And); ("or", Mir.Or);
  ]

let unops =
  [ ("neg", Mir.Neg); ("not", Mir.Not); ("i2f", Mir.Int_to_float);
    ("f2i", Mir.Float_to_int) ]

(* Every reserved word, by what it names; a register may be none of them. *)
type mnemonic = Bin of Mir.binop | Un of Mir.unop | Keyword

let mnemonics =
  let t = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace t k Keyword) [ "phi"; "jump"; "br"; "ret"; "func" ];
  List.iter (fun (k, op) -> Hashtbl.replace t k (Bin op)) binops;
  List.iter (fun (k, op) -> Hashtbl.replace t k (Un op)) unops;
  t

let binop_of t =
  match Hashtbl.find_opt mnemonics t with Some (Bin op) -> Some op | _ -> None

let unop_of t =
  match Hashtbl.find_opt mnemonics t with Some (Un op) -> Some op | _ -> None

let is_label_tok t =
  let n = String.length t in
  n >= 2
  && String.unsafe_get t 0 = 'b'
  &&
  let rec digits i =
    i >= n
    || (let c = String.unsafe_get t i in
        c >= '0' && c <= '9' && digits (i + 1))
  in
  digits 1

(* Labels are b<digits>; one whose number overflows an int is an error,
   not an exception. *)
let label_of line t =
  if is_label_tok t then
    match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
    | Some l -> l
    | None -> fail line "block label %S out of range" t
  else fail line "expected a block label, found %S" t

let is_number t =
  String.length t > 0
  && (t.[0] = '-' || (t.[0] >= '0' && t.[0] <= '9'))

type state = {
  regs : (string, Mir.reg) Hashtbl.t;
  mutable next_reg : int;
}

let value_of line t =
  match int_of_string_opt t with
  | Some i -> Mir.Int i
  | None -> (
    match float_of_string_opt t with
    | Some x -> Mir.Float x
    | None -> fail line "bad literal %S" t)

let reg_of st line t =
  match Hashtbl.find_opt st.regs t with
  | Some r -> r
  | None ->
    if Hashtbl.mem mnemonics t then
      fail line "register name %S collides with a mnemonic" t;
    if is_label_tok t then fail line "register name %S looks like a label" t;
    let r = st.next_reg in
    st.next_reg <- r + 1;
    Hashtbl.add st.regs t r;
    r

let operand_of st line t =
  if is_number t then Mir.Const (value_of line t) else Mir.Reg (reg_of st line t)

(* Parse one body line that has already been split into tokens. Returns
   `Phi, `Instr or `Term. *)
let parse_code_line st (l : line) toks =
  let line = l.num in
  match toks with
  | [ "jump"; lbl ] -> `Term (Mir.Jump (label_of line lbl))
  | [ "br"; c; ","; t; ","; e ] ->
    `Term
      (Mir.Branch
         {
           cond = operand_of st line c;
           if_true = label_of line t;
           if_false = label_of line e;
         })
  | [ "ret" ] -> `Term (Mir.Return None)
  | [ "ret"; v ] -> `Term (Mir.Return (Some (operand_of st line v)))
  | dst :: ":=" :: rest -> (
    match rest with
    | "phi" :: args ->
      let d = reg_of st line dst in
      let rec parse_args acc = function
        | [] -> List.rev acc
        | "[" :: lbl :: ":" :: v :: "]" :: rest ->
          parse_args ((label_of line lbl, operand_of st line v) :: acc) rest
        | _ -> fail line "malformed phi argument list"
      in
      `Phi { Mir.dst = d; args = parse_args [] args }
    | [ op; a; ","; b ] when binop_of op <> None ->
      `Instr
        (Mir.Binop
           {
             op = Option.get (binop_of op);
             dst = reg_of st line dst;
             l = operand_of st line a;
             r = operand_of st line b;
           })
    | [ op; a ] when unop_of op <> None ->
      `Instr
        (Mir.Unop
           {
             op = Option.get (unop_of op);
             dst = reg_of st line dst;
             src = operand_of st line a;
           })
    | [ arr; "["; idx; "]" ] ->
      `Instr
        (Mir.Load
           { dst = reg_of st line dst; arr; idx = operand_of st line idx })
    | [ v ] -> `Instr (Mir.Copy { dst = reg_of st line dst; src = operand_of st line v })
    | _ -> fail line "malformed instruction")
  | arr :: "[" :: idx :: "]" :: ":=" :: [ v ] ->
    `Instr
      (Mir.Store
         { arr; idx = operand_of st line idx; src = operand_of st line v })
  | t :: _ -> fail line "unexpected token %S" t
  | [] -> fail line "empty line"

let parse_func (ls : line list) : Mir.func * line list =
  let st = { regs = Hashtbl.create 64; next_reg = 0 } in
  (* Header: func NAME ( params ) {   — the printer also writes the entry in
     a comment, which lines_of_string set apart; entry defaults to the
     first block. *)
  let header, rest =
    match ls with
    | h :: rest -> (h, rest)
    | [] -> fail 0 "expected a function"
  in
  let name, params =
    match tokenize_line header with
    | "func" :: name :: "(" :: rest ->
      let rec params acc = function
        | ")" :: "{" :: [] -> List.rev acc
        | ")" :: "{" :: _ -> fail header.num "garbage after '{'"
        | p :: "," :: rest -> params (reg_of st header.num p :: acc) rest
        | p :: rest when p <> ")" -> params (reg_of st header.num p :: acc) rest
        | _ -> fail header.num "malformed parameter list"
      in
      (name, params [] rest)
    | _ -> fail header.num "expected 'func NAME(...) {'"
  in
  (* Blocks until the closing brace, in order, with the line of each
     label. *)
  let blocks : (int * Mir.block) list ref = ref [] in
  let rec parse_blocks ls =
    match ls with
    | ({ text = "}"; _ } as close) :: rest -> (close.num, rest)
    | l :: rest -> (
      match tokenize_line l with
      | [ lbl; ":" ] ->
        let label = label_of l.num lbl in
        let phis = ref [] in
        let instrs = ref [] in
        let rec body ls =
          match ls with
          | [] -> fail l.num "unterminated block b%d" label
          | b :: rest2 -> (
            match parse_code_line st b (tokenize_line b) with
            | `Phi p ->
              if !instrs <> [] then
                fail b.num "phi after ordinary instructions";
              phis := p :: !phis;
              body rest2
            | `Instr i ->
              instrs := i :: !instrs;
              body rest2
            | `Term t -> (t, rest2))
        in
        let term, rest2 = body rest in
        blocks :=
          ( l.num,
            { Mir.label; phis = List.rev !phis; body = List.rev !instrs; term }
          )
          :: !blocks;
        parse_blocks rest2
      | _ -> fail l.num "expected a block label")
    | [] -> fail 0 "missing closing '}'"
  in
  let close, rest = parse_blocks rest in
  let blocks = List.rev !blocks in
  (match blocks with
  | [] -> fail header.num "function %s has no blocks" name
  | _ -> ());
  (* The printer records the entry in a header comment ("entry bN"); default
     to the first block otherwise. *)
  let entry_override =
    match String.split_on_char ' ' header.comment with
    | [ "entry"; lbl ] when is_label_tok lbl -> Some (label_of header.num lbl)
    | _ -> None
  in
  (* The block array is indexed by label, so a label bounds its size. Every
     printed block takes at least two lines, so a label below the
     function's line count admits every printer output while keeping the
     array linear in the input. *)
  let span = close - header.num + 1 in
  List.iter
    (fun (num, (b : Mir.block)) ->
      if b.label >= span then
        fail num "block label b%d out of range for a %d-line function" b.label
          span)
    blocks;
  let max_label =
    List.fold_left (fun m (_, (b : Mir.block)) -> max m b.label) 0 blocks
  in
  let slots = Array.make (max_label + 1) None in
  List.iter
    (fun (num, (b : Mir.block)) ->
      if Option.is_some slots.(b.label) then fail num "duplicate block label b%d" b.label;
      slots.(b.label) <- Some b)
    blocks;
  let arr =
    Array.mapi
      (fun l -> function
        | Some b -> b
        | None -> { Mir.label = l; phis = []; body = []; term = Mir.Return None })
      slots
  in
  let entry =
    match (entry_override, blocks) with
    | Some e, _ -> e
    | None, (_, b) :: _ -> b.label
    | None, [] -> assert false
  in
  let hints =
    Hashtbl.fold (fun name r acc -> Support.Imap.add r name acc) st.regs
      Support.Imap.empty
  in
  ( {
      Mir.name;
      params;
      entry;
      blocks = arr;
      nregs = st.next_reg;
      hints;
    },
    rest )

let funcs_of_string s =
  let rec loop ls acc =
    match ls with
    | [] -> List.rev acc
    | _ ->
      let f, rest = parse_func ls in
      loop rest (f :: acc)
  in
  loop (lines_of_string s) []

let func_of_string s =
  match funcs_of_string s with
  | [ f ] -> f
  | fs -> raise (Error (Printf.sprintf "expected one function, got %d" (List.length fs), 0))
