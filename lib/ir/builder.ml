open Support

type proto_block = {
  phis : Mir.phi Vec.t;
  body : Mir.instr Vec.t;
  mutable term : Mir.terminator option;
}

type t = {
  fname : string;
  mutable params : Mir.reg list;
  mutable entry : Mir.label option;
  blocks : proto_block Vec.t;
  mutable next_reg : int;
  names : string Vec.t;  (* by register; "" = unnamed *)
}

let create fname =
  {
    fname;
    params = [];
    entry = None;
    blocks = Vec.create ();
    next_reg = 0;
    names = Vec.create ();
  }

let fresh_reg ?name t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  Vec.push t.names (Option.value name ~default:"");
  r

let add_param ?name t =
  let r = fresh_reg ?name t in
  t.params <- t.params @ [ r ];
  r

let add_block t =
  let l = Vec.length t.blocks in
  Vec.push t.blocks { phis = Vec.create (); body = Vec.create (); term = None };
  if t.entry = None then t.entry <- Some l;
  l

let set_entry t l = t.entry <- Some l

let proto t l =
  if l < 0 || l >= Vec.length t.blocks then invalid_arg "Builder: bad label";
  Vec.get t.blocks l

let push t l i = Vec.push (proto t l).body i

let push_phi t l p = Vec.push (proto t l).phis p

let terminate t l term =
  let b = proto t l in
  match b.term with
  | Some _ -> failwith (Printf.sprintf "Builder: block %d already terminated" l)
  | None -> b.term <- Some term

let is_terminated t l = (proto t l).term <> None

let num_blocks t = Vec.length t.blocks

let finish t : Mir.func =
  let entry =
    match t.entry with
    | Some e -> e
    | None -> failwith "Builder: function has no blocks"
  in
  let blocks =
    Array.init (Vec.length t.blocks) (fun l ->
        let b = Vec.get t.blocks l in
        match b.term with
        | None -> failwith (Printf.sprintf "Builder: block %d not terminated" l)
        | Some term ->
          {
            Mir.label = l;
            phis = Vec.to_list b.phis;
            body = Vec.to_list b.body;
            term;
          })
  in
  {
    Mir.name = t.fname;
    params = t.params;
    entry;
    blocks;
    nregs = t.next_reg;
    names = Names.given (Vec.to_array t.names);
  }
