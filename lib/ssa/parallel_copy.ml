type move = {
  dst : Ir.reg;
  src : Ir.operand;
}

let real_moves moves =
  (* Drop identity moves; they are no-ops whatever the order. *)
  List.filter (fun m -> m.src <> Ir.Reg m.dst) moves

let check_distinct moves =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.dst then
        invalid_arg "Parallel_copy: duplicate destination";
      Hashtbl.add seen m.dst ())
    moves

let sequentialize ?obs ~(fresh : unit -> Ir.reg) moves =
  let fresh () =
    Option.iter (fun o -> Obs.incr o Obs.Parallel_copy_temps) obs;
    fresh ()
  in
  let moves = real_moves moves in
  check_distinct moves;
  let pred : (Ir.reg, Ir.operand) Hashtbl.t = Hashtbl.create 8 in
  let loc : (Ir.reg, Ir.reg) Hashtbl.t = Hashtbl.create 8 in
  let emitted : (Ir.reg, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace pred m.dst m.src) moves;
  List.iter
    (fun m ->
      match m.src with
      | Ir.Reg a -> Hashtbl.replace loc a a
      | Ir.Const _ -> ())
    moves;
  let out = ref [] in
  let emit dst src = out := Ir.Copy { dst; src } :: !out in
  let source_of dst =
    match Hashtbl.find_opt pred dst with
    | Some src -> src
    | None ->
      invalid_arg
        (Printf.sprintf
           "Parallel_copy.sequentialize: r%d reached the worklist but is not \
            a move destination (malformed move set)"
           dst)
  in
  let ready = ref [] in
  List.iter
    (fun m -> if not (Hashtbl.mem loc m.dst) then ready := m.dst :: !ready)
    moves;
  let todo = ref (List.map (fun m -> m.dst) moves) in
  let process_ready () =
    while !ready <> [] do
      match !ready with
      | [] -> ()
      | b :: rest ->
        ready := rest;
        Hashtbl.replace emitted b ();
        (match source_of b with
        | Ir.Const _ as c -> emit b c
        | Ir.Reg a ->
          let c = Hashtbl.find loc a in
          emit b (Ir.Reg c);
          Hashtbl.replace loc a b;
          (* If a's value was still in a, register a is now free; if a is
             itself a pending destination it becomes writable. *)
          if a = c && Hashtbl.mem pred a && not (Hashtbl.mem emitted a) then
            ready := a :: !ready)
    done
  in
  process_ready ();
  while !todo <> [] do
    match !todo with
    | [] -> ()
    | b :: rest ->
      todo := rest;
      if not (Hashtbl.mem emitted b) then begin
        (* b is part of a register cycle: save its current value in a fresh
           temporary so b becomes writable, then drain the cycle. *)
        let t = fresh () in
        emit t (Ir.Reg b);
        Hashtbl.replace loc b t;
        ready := [ b ];
        process_ready ()
      end
  done;
  List.rev !out

let needs_temp moves =
  let moves = real_moves moves in
  (* A cycle exists iff following dst → src(dst) from some dst returns to
     it without hitting a constant or a non-destination register. Every
     chain has out-degree ≤ 1, so a colored walk suffices: a register whose
     whole chain was already followed to the end ([`Done]) can never lie on
     a cycle and need not be re-walked — this keeps the scan linear on long
     copy chains instead of quadratic (one fresh visited-set per start). *)
  let pred = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace pred m.dst m.src) moves;
  let state : (Ir.reg, [ `On_path | `Done ]) Hashtbl.t = Hashtbl.create 8 in
  let exception Cycle in
  try
    List.iter
      (fun m ->
        let rec follow r =
          match Hashtbl.find_opt state r with
          | Some `Done -> ()
          | Some `On_path -> raise Cycle
          | None ->
            Hashtbl.add state r `On_path;
            (match Hashtbl.find_opt pred r with
            | Some (Ir.Reg s) -> follow s
            | Some (Ir.Const _) | None -> ());
            Hashtbl.replace state r `Done
        in
        follow m.dst)
      moves;
    false
  with Cycle -> true
