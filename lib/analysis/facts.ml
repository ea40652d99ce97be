type t = {
  cfg : Ir.Cfg.t;
  dom : Dominance.t option;
  live : Liveness.t option;
}

let of_func f = { cfg = Ir.Cfg.of_func f; dom = None; live = None }

let or_build facts f = match facts with Some t -> t | None -> of_func f

let dominance f t =
  match t.dom with Some d -> d | None -> Dominance.compute f t.cfg

let reuse ~candidate cfg =
  match candidate.dom with
  | Some _ when Ir.Cfg.equal candidate.cfg cfg ->
    { cfg; dom = candidate.dom; live = None }
  | Some _ | None -> { cfg; dom = None; live = None }

let split_critical_edges ?obs t f =
  let f', cfg, edges = Ir.Edge_split.split ?obs t.cfg f in
  ( f',
    {
      cfg;
      dom = Option.map (fun d -> Dominance.after_split d cfg edges) t.dom;
      live = None;
    } )

(* Structure first, then the liveness verdict; the full validator only
   when the verdict fails, so it alone writes the errors. The verdict's
   solve charges no pops: the pass it is handed to charges them. *)
let checked ?obs f =
  match Ir.Validate.structure_cfg f with
  | Error errs -> Error errs
  | Ok cfg ->
    let scratch = Support.Scratch.domain () in
    let live = Liveness.compute_into ~scratch f cfg in
    Option.iter (fun o -> Obs.add_work o "liveness_solves" 1) obs;
    if Liveness.strict live f then Ok { cfg; dom = None; live = Some live }
    else begin
      Liveness.release scratch live;
      Result.map (fun cfg -> { cfg; dom = None; live = None })
        (Ir.Validate.run_cfg ?obs f)
    end

let release t =
  Option.iter (Liveness.release (Support.Scratch.domain ())) t.live
