type t = {
  cfg : Ir.Cfg.t;
  dom : Dominance.t option;
}

let of_func f = { cfg = Ir.Cfg.of_func f; dom = None }

let or_build facts f = match facts with Some t -> t | None -> of_func f

let dominance f t =
  match t.dom with Some d -> d | None -> Dominance.compute f t.cfg

let reuse ~candidate cfg =
  match candidate.dom with
  | Some _ when Ir.Cfg.equal candidate.cfg cfg -> { cfg; dom = candidate.dom }
  | Some _ | None -> { cfg; dom = None }

let split_critical_edges ?obs t f =
  let f', cfg, edges = Ir.Edge_split.split ?obs t.cfg f in
  (f', { cfg; dom = Option.map (fun d -> Dominance.after_split d cfg edges) t.dom })
