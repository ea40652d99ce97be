module Cfg = Ir.Cfg

type t = {
  depth : int array;
  headers : Ir.label list;
}

let compute cfg dom =
  let n = Cfg.num_blocks cfg in
  let depth = Array.make n 0 in
  (* Back edges sharing a header form one loop: merge their bodies before
     counting depth, otherwise e.g. a while-loop with a `continue` would
     count double. *)
  let tails = Array.make n [] in
  for t = 0 to n - 1 do
    if Cfg.reachable cfg t then
      Cfg.iter_succs cfg t (fun h ->
          if Dominance.dominates dom h t then tails.(h) <- t :: tails.(h))
  done;
  (* The natural loop of header h is h plus everything that reaches one of
     its back-edge tails without passing through h. [mark.(b) = h] stamps b
     as already in h's loop, so one block-indexed array and one worklist of
     at most n entries serve every header: the cost is O(Σ loop bodies). *)
  let mark = Array.make n (-1) in
  let stack = Array.make n 0 in
  let top = ref 0 in
  let enter h b =
    if mark.(b) <> h then begin
      mark.(b) <- h;
      depth.(b) <- depth.(b) + 1;
      stack.(!top) <- b;
      incr top
    end
  in
  let headers = ref [] in
  for h = n - 1 downto 0 do
    if tails.(h) <> [] then begin
      headers := h :: !headers;
      mark.(h) <- h;
      depth.(h) <- depth.(h) + 1;
      let visit = enter h in
      List.iter visit tails.(h);
      while !top > 0 do
        decr top;
        Cfg.iter_preds cfg stack.(!top) visit
      done
    end
  done;
  { depth; headers = !headers }

let depth t l = t.depth.(l)
let num_loops t = List.length t.headers
let headers t = t.headers
