(* One Buffer-based printer. Its output is the cache's content address
   (Cache.key hashes it), so every byte is a contract: two spaces of
   indentation inside a block, one construct per line, no trailing
   newline. Register names are resolved once per function into an array
   instead of one Imap lookup per occurrence, and nothing goes through
   Format. *)

let binop_name = function
  | Mir.Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Flt_add -> "fadd" | Flt_sub -> "fsub" | Flt_mul -> "fmul" | Flt_div -> "fdiv"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | And -> "and" | Or -> "or"

let unop_name = function
  | Mir.Neg -> "neg" | Not -> "not"
  | Int_to_float -> "i2f" | Float_to_int -> "f2i"

let add_value b = function
  | Mir.Int i -> Buffer.add_string b (string_of_int i)
  | Mir.Float x -> Printf.bprintf b "%g" x

let value_to_string v =
  let b = Buffer.create 16 in
  add_value b v;
  Buffer.contents b

(* The printing context: the buffer, the function, and its register names,
   filled in on first use ("" = not resolved yet). Registers outside
   [0, nregs), which only invalid functions hold, are resolved each time. *)
type ctx = { b : Buffer.t; f : Mir.func; names : string array }

let ctx b (f : Mir.func) = { b; f; names = Array.make (max f.nregs 0) "" }

let add_reg c r =
  Buffer.add_string c.b
    (if r >= 0 && r < Array.length c.names then begin
       let s = Array.unsafe_get c.names r in
       if String.length s > 0 then s
       else begin
         let s = Mir.reg_name c.f r in
         Array.unsafe_set c.names r s;
         s
       end
     end
     else Mir.reg_name c.f r)

let add_operand c = function
  | Mir.Reg r -> add_reg c r
  | Mir.Const v -> add_value c.b v

let add_label c l =
  Buffer.add_char c.b 'b';
  Buffer.add_string c.b (string_of_int l)

let add_instr c = function
  | Mir.Copy { dst; src } ->
    add_reg c dst;
    Buffer.add_string c.b " := ";
    add_operand c src
  | Unop { op; dst; src } ->
    add_reg c dst;
    Buffer.add_string c.b " := ";
    Buffer.add_string c.b (unop_name op);
    Buffer.add_char c.b ' ';
    add_operand c src
  | Binop { op; dst; l; r } ->
    add_reg c dst;
    Buffer.add_string c.b " := ";
    Buffer.add_string c.b (binop_name op);
    Buffer.add_char c.b ' ';
    add_operand c l;
    Buffer.add_string c.b ", ";
    add_operand c r
  | Load { dst; arr; idx } ->
    add_reg c dst;
    Buffer.add_string c.b " := ";
    Buffer.add_string c.b arr;
    Buffer.add_char c.b '[';
    add_operand c idx;
    Buffer.add_char c.b ']'
  | Store { arr; idx; src } ->
    Buffer.add_string c.b arr;
    Buffer.add_char c.b '[';
    add_operand c idx;
    Buffer.add_string c.b "] := ";
    add_operand c src

let add_phi c (p : Mir.phi) =
  add_reg c p.dst;
  Buffer.add_string c.b " := phi";
  List.iter
    (fun (l, op) ->
      Buffer.add_string c.b " [";
      add_label c l;
      Buffer.add_string c.b ": ";
      add_operand c op;
      Buffer.add_char c.b ']')
    p.args

let add_terminator c = function
  | Mir.Jump l ->
    Buffer.add_string c.b "jump ";
    add_label c l
  | Branch { cond; if_true; if_false } ->
    Buffer.add_string c.b "br ";
    add_operand c cond;
    Buffer.add_string c.b ", ";
    add_label c if_true;
    Buffer.add_string c.b ", ";
    add_label c if_false
  | Return (Some op) ->
    Buffer.add_string c.b "ret ";
    add_operand c op
  | Return None -> Buffer.add_string c.b "ret"

let add_block c (b : Mir.block) =
  add_label c b.label;
  Buffer.add_char c.b ':';
  List.iter
    (fun p ->
      Buffer.add_string c.b "\n  ";
      add_phi c p)
    b.phis;
  List.iter
    (fun i ->
      Buffer.add_string c.b "\n  ";
      add_instr c i)
    b.body;
  Buffer.add_string c.b "\n  ";
  add_terminator c b.term;
  Buffer.add_char c.b '\n'

let add_func b (f : Mir.func) =
  let c = ctx b f in
  Buffer.add_string b "func ";
  Buffer.add_string b f.name;
  Buffer.add_char b '(';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      add_reg c r)
    f.params;
  Buffer.add_string b ") {  # entry ";
  add_label c f.entry;
  Buffer.add_char b '\n';
  Array.iter (add_block c) f.blocks;
  Buffer.add_char b '}'

let func_to_string f =
  let b = Buffer.create 1024 in
  add_func b f;
  Buffer.contents b

let block_lines f =
  let c = ctx (Buffer.create 64) f in
  let line add x =
    Buffer.clear c.b;
    add c x;
    Buffer.contents c.b
  in
  fun (blk : Mir.block) ->
    List.map (line add_phi) blk.phis
    @ List.map (line add_instr) blk.body
    @ [ line add_terminator blk.term ]
