(* Spans recorded by the benchmark's own code around its calls into each
   layer: name, start, end, the span that caused it, and the request
   (item) it belongs to. They are kept in memory and written once at exit
   as Chrome trace-event JSON, which Perfetto and chrome://tracing open
   directly. *)

type span = {
  id : int;
  parent : int;  (* 0 = a root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable kept : span list;  (* newest first, at most [cap] *)
  mutable nkept : int;
  mutable next_id : int;
}

let now = Harness.Measure.now_s

(* The cap bounds the trace file's size; spans past it are timed but not
   kept. *)
let cap = 100_000

let create () = { kept = []; nkept = 0; next_id = 0 }

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let record t ~id ~parent ~req name t0 t1 =
  if t.nkept < cap then begin
    t.kept <- { id; parent; req; name; t0; t1 } :: t.kept;
    t.nkept <- t.nkept + 1
  end

(* Run [f] as a child span of [parent]; returns its result and duration
   in seconds. *)
let time t ~parent ~req name f =
  let id = fresh_id t in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  record t ~id ~parent ~req name t0 t1;
  (r, t1 -. t0)

(* Seconds one empty span costs: the tracing overhead per layer call. *)
let cost () =
  let n = cap in
  let t = create () in
  let t0 = now () in
  for _ = 1 to n do
    ignore (time t ~parent:0 ~req:0 "empty" ignore)
  done;
  (now () -. t0) /. float n

let write t path =
  let spans = List.rev t.kept in
  let epoch = match spans with s :: _ -> s.t0 | [] -> 0. in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.Str s.name);
                    ("ph", Json.Str "X");
                    ("ts", Json.Num ((s.t0 -. epoch) *. 1e6));
                    ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
                    ("pid", Json.Num 1.);
                    ("tid", Json.Num 1.);
                    ( "args",
                      Json.Obj
                        [
                          ("id", Json.Num (float s.id));
                          ("parent", Json.Num (float s.parent));
                          ("req", Json.Num (float s.req));
                        ] );
                  ])))
        spans;
      output_string oc "\n]}\n")
