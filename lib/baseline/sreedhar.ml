module Cfg = Ir.Cfg

type stats = {
  copies_inserted : int;
  names_introduced : int;
}

let run (f : Ir.func) =
  let cfg = Cfg.of_func f in
  let next = ref f.nregs in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let copies = ref 0 in
  (* Copies to append at the end of each predecessor, in φ order, and to
     prepend at the top of each φ block. All destinations are fresh names,
     so emission order within a block is irrelevant. *)
  let at_end = Array.make (Ir.num_blocks f) [] in
  let at_start = Array.make (Ir.num_blocks f) [] in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun (p : Ir.phi) ->
            let n = fresh () in
            List.iter
              (fun (pl, op) ->
                incr copies;
                at_end.(pl) <- Ir.Copy { dst = n; src = op } :: at_end.(pl))
              p.args;
            incr copies;
            at_start.(b.label) <-
              Ir.Copy { dst = p.dst; src = Ir.Reg n } :: at_start.(b.label))
          b.phis)
    f.blocks;
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        {
          b with
          phis = [];
          body =
            List.rev at_start.(b.label) @ b.body @ List.rev at_end.(b.label);
        })
      f.blocks
  in
  (* The congruence-class names print as "cc<N>". *)
  let names =
    Ir.Names.temps f.names ~first:f.nregs ~numbered:true
      (Array.make (!next - f.nregs) "cc")
  in
  ( { f with blocks; nregs = !next; names },
    { copies_inserted = !copies; names_introduced = !next - f.nregs } )

let run_exn f = fst (run f)
