type counter =
  | Phis_inserted
  | Copies_folded
  | Liveness_worklist_pops
  | Critical_edges_split
  | Phi_args_unioned
  | Filter_arg_live_into_block
  | Filter_target_live_out
  | Filter_phi_arg_live_in
  | Filter_sibling_phi
  | Filter_same_block_args
  | Const_phi_args
  | Rename_detaches
  | Forest_nodes_visited
  | Forest_interference_checks
  | Forest_detaches
  | Local_pairs_deferred
  | Local_interference_checks
  | Local_detaches
  | Congruence_classes
  | Congruence_class_members
  | Copies_inserted
  | Copies_eliminated
  | Parallel_copy_temps
  | Igraph_rounds
  | Igraph_coalesced
  | Sreedhar_names_introduced

(* The slot of each counter in the recorder's vector. Must number the
   constructors 0.. in declaration order; [all_counters] below is kept in
   the same order and the test suite pins the agreement down. *)
let index = function
  | Phis_inserted -> 0
  | Copies_folded -> 1
  | Liveness_worklist_pops -> 2
  | Critical_edges_split -> 3
  | Phi_args_unioned -> 4
  | Filter_arg_live_into_block -> 5
  | Filter_target_live_out -> 6
  | Filter_phi_arg_live_in -> 7
  | Filter_sibling_phi -> 8
  | Filter_same_block_args -> 9
  | Const_phi_args -> 10
  | Rename_detaches -> 11
  | Forest_nodes_visited -> 12
  | Forest_interference_checks -> 13
  | Forest_detaches -> 14
  | Local_pairs_deferred -> 15
  | Local_interference_checks -> 16
  | Local_detaches -> 17
  | Congruence_classes -> 18
  | Congruence_class_members -> 19
  | Copies_inserted -> 20
  | Copies_eliminated -> 21
  | Parallel_copy_temps -> 22
  | Igraph_rounds -> 23
  | Igraph_coalesced -> 24
  | Sreedhar_names_introduced -> 25

let all_counters =
  [
    Phis_inserted;
    Copies_folded;
    Liveness_worklist_pops;
    Critical_edges_split;
    Phi_args_unioned;
    Filter_arg_live_into_block;
    Filter_target_live_out;
    Filter_phi_arg_live_in;
    Filter_sibling_phi;
    Filter_same_block_args;
    Const_phi_args;
    Rename_detaches;
    Forest_nodes_visited;
    Forest_interference_checks;
    Forest_detaches;
    Local_pairs_deferred;
    Local_interference_checks;
    Local_detaches;
    Congruence_classes;
    Congruence_class_members;
    Copies_inserted;
    Copies_eliminated;
    Parallel_copy_temps;
    Igraph_rounds;
    Igraph_coalesced;
    Sreedhar_names_introduced;
  ]

let num_counters = List.length all_counters

let counter_name = function
  | Phis_inserted -> "phis_inserted"
  | Copies_folded -> "copies_folded"
  | Liveness_worklist_pops -> "liveness_worklist_pops"
  | Critical_edges_split -> "critical_edges_split"
  | Phi_args_unioned -> "phi_args_unioned"
  | Filter_arg_live_into_block -> "filter1_arg_live_into_phi_block"
  | Filter_target_live_out -> "filter2_target_live_out_of_arg_block"
  | Filter_phi_arg_live_in -> "filter3_phi_arg_target_live_in"
  | Filter_sibling_phi -> "filter4_arg_joined_sibling_phi"
  | Filter_same_block_args -> "filter5_same_block_args"
  | Const_phi_args -> "const_phi_args"
  | Rename_detaches -> "rename_detaches"
  | Forest_nodes_visited -> "forest_nodes_visited"
  | Forest_interference_checks -> "forest_interference_checks"
  | Forest_detaches -> "forest_detaches"
  | Local_pairs_deferred -> "local_pairs_deferred"
  | Local_interference_checks -> "local_interference_checks"
  | Local_detaches -> "local_interference_detaches"
  | Congruence_classes -> "congruence_classes"
  | Congruence_class_members -> "congruence_class_members"
  | Copies_inserted -> "copies_inserted"
  | Copies_eliminated -> "copies_eliminated"
  | Parallel_copy_temps -> "parallel_copy_temps"
  | Igraph_rounds -> "igraph_rounds"
  | Igraph_coalesced -> "igraph_coalesced"
  | Sreedhar_names_introduced -> "sreedhar_names_introduced"

type t = {
  counts : int array;
  span_acc : (string, float ref) Hashtbl.t;
  mutable span_order : string list;  (* reverse first-seen order *)
  extra_acc : (string, int ref) Hashtbl.t;
  mutable extra_order : string list;  (* reverse first-seen order *)
  work_acc : (string, int ref) Hashtbl.t;  (* never printed *)
}

let create () =
  {
    counts = Array.make num_counters 0;
    span_acc = Hashtbl.create 8;
    span_order = [];
    extra_acc = Hashtbl.create 8;
    extra_order = [];
    work_acc = Hashtbl.create 2;
  }

let incr t c =
  let i = index c in
  t.counts.(i) <- t.counts.(i) + 1

let add t c n =
  let i = index c in
  t.counts.(i) <- t.counts.(i) + n

let get t c = t.counts.(index c)

let add_span t name seconds =
  match Hashtbl.find_opt t.span_acc name with
  | Some r -> r := !r +. seconds
  | None ->
    Hashtbl.add t.span_acc name (ref seconds);
    t.span_order <- name :: t.span_order

(* Seconds on the monotonic clock, which a wall-clock step cannot move. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let span t name f =
  let t0 = now_s () in
  Fun.protect
    ~finally:(fun () -> add_span t name (now_s () -. t0))
    f

let add_extra t name n =
  match Hashtbl.find_opt t.extra_acc name with
  | Some r -> r := !r + n
  | None ->
    Hashtbl.add t.extra_acc name (ref n);
    t.extra_order <- name :: t.extra_order

let add_work t name n =
  match Hashtbl.find_opt t.work_acc name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.work_acc name (ref n)

let work t name =
  match Hashtbl.find_opt t.work_acc name with Some r -> !r | None -> 0

let merge ~into src =
  Array.iteri (fun i v -> into.counts.(i) <- into.counts.(i) + v) src.counts;
  List.iter
    (fun n -> add_span into n !(Hashtbl.find src.span_acc n))
    (List.rev src.span_order);
  List.iter
    (fun n -> add_extra into n !(Hashtbl.find src.extra_acc n))
    (List.rev src.extra_order);
  Hashtbl.iter (fun n r -> add_work into n !r) src.work_acc

let reset t =
  Array.fill t.counts 0 num_counters 0;
  Hashtbl.reset t.span_acc;
  t.span_order <- [];
  Hashtbl.reset t.extra_acc;
  t.extra_order <- [];
  Hashtbl.reset t.work_acc

let extras t =
  List.rev_map (fun n -> (n, !(Hashtbl.find t.extra_acc n))) t.extra_order

let counters t =
  List.map (fun c -> (counter_name c, t.counts.(index c))) all_counters
  @ extras t

let spans t =
  List.rev_map (fun n -> (n, !(Hashtbl.find t.span_acc n))) t.span_order

module Snapshot = struct
  type t = {
    counters : (string * int) list;
    spans : (string * float) list;
  }
end

let snapshot t = { Snapshot.counters = counters t; spans = spans t }

type report = (string * Snapshot.t) list

(* ------------------------------------------------------------------ *)
(* JSON emission and parsing (hand-rolled; the subset we emit)         *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_to_json ?(spans = false) (r : report) =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  out "{\n";
  out "  \"schema\": \"repro-obs/1\",\n";
  out "  \"routes\": {\n";
  let nroutes = List.length r in
  List.iteri
    (fun ri (route, (s : Snapshot.t)) ->
      out "    \"%s\": {\n" (json_escape route);
      out "      \"counters\": {\n";
      let nc = List.length s.counters in
      List.iteri
        (fun i (k, v) ->
          out "        \"%s\": %d%s\n" (json_escape k) v
            (if i = nc - 1 then "" else ","))
        s.counters;
      out "      }%s\n" (if spans && s.spans <> [] then "," else "");
      if spans && s.spans <> [] then begin
        out "      \"spans\": {\n";
        let ns = List.length s.spans in
        List.iteri
          (fun i (k, v) ->
            out "        \"%s\": %.9f%s\n" (json_escape k) v
              (if i = ns - 1 then "" else ","))
          s.spans;
        out "      }\n"
      end;
      out "    }%s\n" (if ri = nroutes - 1 then "" else ","))
    r;
  out "  }\n";
  out "}\n";
  Buffer.contents b

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstring of string
  | Jlist of json list
  | Jobj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Obs JSON: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* Our own emitter only writes \u for control chars. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else fail "non-ASCII \\u escape unsupported"
        | _ -> fail "bad escape");
        loop ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Jobj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Jobj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Jlist [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Jlist (List.rev !items)
      end
    | Some '"' -> Jstring (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let report_of_json src : report =
  let obj = function
    | Jobj fields -> fields
    | _ -> failwith "Obs JSON: expected an object"
  in
  let top = obj (parse_json src) in
  (match List.assoc_opt "schema" top with
  | Some (Jstring "repro-obs/1") -> ()
  | Some (Jstring other) -> failwith ("Obs JSON: unknown schema " ^ other)
  | _ -> failwith "Obs JSON: missing schema");
  let routes =
    match List.assoc_opt "routes" top with
    | Some r -> obj r
    | None -> failwith "Obs JSON: missing routes"
  in
  List.map
    (fun (route, body) ->
      let body = obj body in
      let ints key =
        match List.assoc_opt key body with
        | None -> []
        | Some o ->
          List.map
            (fun (k, v) ->
              match v with
              | Jnum f -> (k, int_of_float f)
              | _ -> failwith ("Obs JSON: counter " ^ k ^ " is not a number"))
            (obj o)
      in
      let floats key =
        match List.assoc_opt key body with
        | None -> []
        | Some o ->
          List.map
            (fun (k, v) ->
              match v with
              | Jnum f -> (k, f)
              | _ -> failwith ("Obs JSON: span " ^ k ^ " is not a number"))
            (obj o)
      in
      (route, { Snapshot.counters = ints "counters"; spans = floats "spans" }))
    routes

(* ------------------------------------------------------------------ *)
(* Golden comparison                                                   *)
(* ------------------------------------------------------------------ *)

type drift = {
  route : string;
  counter : string;
  expected : int;
  actual : int;
  tolerance : float;
}

let compare_reports ?(tolerances = []) ~(expected : report) (actual : report) =
  let routes =
    List.map fst expected
    @ List.filter
        (fun r -> not (List.mem_assoc r expected))
        (List.map fst actual)
  in
  List.concat_map
    (fun route ->
      let counters_of rep =
        match List.assoc_opt route rep with
        | Some (s : Snapshot.t) -> s.counters
        | None -> []
      in
      let exp = counters_of expected and act = counters_of actual in
      let keys =
        List.map fst exp
        @ List.filter (fun k -> not (List.mem_assoc k exp)) (List.map fst act)
      in
      List.filter_map
        (fun counter ->
          let value l = Option.value ~default:0 (List.assoc_opt counter l) in
          let e = value exp and a = value act in
          let tolerance =
            Option.value ~default:0.0 (List.assoc_opt counter tolerances)
          in
          if float_of_int (abs (a - e)) <= tolerance *. float_of_int (abs e)
          then None
          else Some { route; counter; expected = e; actual = a; tolerance })
        keys)
    routes

let pp_drift ppf d =
  Format.fprintf ppf "route %-12s %-38s golden %8d, now %8d (%+d, tolerance ±%g%%)"
    d.route d.counter d.expected d.actual (d.actual - d.expected)
    (100. *. d.tolerance)

(* ------------------------------------------------------------------ *)
(* Contention counters                                                 *)
(* ------------------------------------------------------------------ *)

module Contention = struct
  type counter = { name : string; cell : int Atomic.t }

  let make name = { name; cell = Atomic.make 0 }
  let hit c = Atomic.incr c.cell
  let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.cell n)
  let count c = Atomic.get c.cell
  let name c = c.name
  let publish c obs = add_extra obs c.name (count c)
end

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Bucket 0 counts durations up to 1 µs; bucket i > 0 those in
     (2^(i-1), 2^i] µs; the last bucket also takes everything longer. *)
  type t = int Atomic.t array

  let buckets = 32
  let make () = Array.init buckets (fun _ -> Atomic.make 0)
  let upper_us i = 1 lsl i

  let bucket_of_us us =
    if not (us > 1.) then 0
    else
      let m, e = Float.frexp us in
      (* us = m · 2^e with m in [0.5, 1): an exact power sits at e - 1. *)
      min (buckets - 1) (if m = 0.5 then e - 1 else e)

  let record h seconds = Atomic.incr h.(bucket_of_us (seconds *. 1e6))
  let counts h = Array.map Atomic.get h

  let quantile_us h q =
    let c = counts h in
    let total = Array.fold_left ( + ) 0 c in
    if total = 0 then 0
    else
      let rank = max 1 (int_of_float (Float.ceil (q *. float total))) in
      let rec find i acc =
        let acc = acc + c.(i) in
        if acc >= rank then upper_us i else find (i + 1) acc
      in
      find 0 0
end
