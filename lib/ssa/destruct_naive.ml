module Cfg = Ir.Cfg

type stats = {
  copies_inserted : int;
  temps_inserted : int;
}

let run ?cfg ?obs (f : Ir.func) =
  let cfg = match cfg with Some cfg -> cfg | None -> Cfg.of_func f in
  let next = ref f.nregs in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  (* Pending copy lists per predecessor block — the paper's Waiting array. *)
  let waiting : Parallel_copy.move list array =
    Array.make (Ir.num_blocks f) []
  in
  Array.iter
    (fun (b : Ir.block) ->
      if Cfg.reachable cfg b.label then
        List.iter
          (fun (p : Ir.phi) ->
            List.iter
              (fun (pl, op) ->
                if
                  List.length p.args > 1
                  && Ir.Edge_split.is_critical cfg ~src:pl ~dst:b.label
                then
                  invalid_arg
                    "Destruct_naive: critical edge carries a phi argument \
                     (run Ir.Edge_split first)";
                waiting.(pl) <- { Parallel_copy.dst = p.dst; src = op } :: waiting.(pl))
              p.args)
          b.phis)
    f.blocks;
  let copies = ref 0 in
  let blocks =
    Array.map
      (fun (b : Ir.block) ->
        let inserted =
          match waiting.(b.label) with
          | [] -> []
          | moves ->
            let seq = Parallel_copy.sequentialize ?obs ~fresh (List.rev moves) in
            copies := !copies + List.length seq;
            seq
        in
        { b with phis = []; body = b.body @ inserted })
      f.blocks
  in
  Option.iter (fun o -> Obs.add o Obs.Copies_inserted !copies) obs;
  let temps = !next - f.nregs in
  (* Parallel-copy temporaries print as a bare "pcopy". *)
  let names =
    Ir.Names.temps f.names ~first:f.nregs ~numbered:false
      (Array.make temps "pcopy")
  in
  ( { f with blocks; nregs = !next; names },
    { copies_inserted = !copies; temps_inserted = temps } )

let run_exn ?cfg ?obs f = fst (run ?cfg ?obs f)
