(* The serve line protocol, shared by the single-client stdin loop and the
   concurrent socket server. One request per line, one response per line:

     compile [--passes SPEC] PATH           compile every function in a file
     inline  [--passes SPEC] PROGRAM        compile one-line mini-language text
     run [--args V,..] [--passes SPEC] PATH compile, then interpret
     stats                                  one-line server/cache counters
     quit | exit                            respond "ok bye" and leave
     # comment / blank                      ignored, no response

   Any request may carry "--tag T"; the tag is echoed in the response
   ("ok tag=T ...", "err tag=T status=N ..."), which is how a pipelining
   client correlates replies. Responses reuse the CLI exit-code taxonomy
   as a status field: "err status=2" for unparsable input, input that
   breaks the pipeline's contract (not a strict, phi-free CFG) or a bad
   request, "err status=3" when the program faulted under the
   interpreter, plus the server-only "err status=busy" shed reply. A
   failed request never terminates the session. *)

exception Bad_request of string

let status_bad_request = 2
let status_fault = 3

let values_of_string s =
  List.map
    (fun tok ->
      match float_of_string_opt tok with
      | Some x when Float.is_integer x -> Ir.Int (int_of_float x)
      | Some x -> Ir.Float x
      | None -> raise (Bad_request ("serve: bad --args value '" ^ tok ^ "'")))
    (String.split_on_char ',' s)

(* Pull the first "--opt VALUE" pair out of a token list, keeping the
   order of everything else (the inline program text, the path). *)
let extract opt words =
  let rec go acc = function
    | w :: v :: rest when w = opt -> (Some v, List.rev_append acc rest)
    | [ w ] when w = opt ->
      raise (Bad_request ("serve: " ^ opt ^ " needs a value"))
    | w :: rest -> go (w :: acc) rest
    | [] -> (None, List.rev acc)
  in
  go [] words

let default_pipeline = Pass.Spec.parse_exn "construct:pruned,coalesce"

let pipeline = function
  | None -> default_pipeline
  | Some spec -> (
    match Pass.Spec.parse spec with
    | Ok p -> p
    | Error msg -> raise (Bad_request msg))

let parse_inline text =
  match Frontend.Lower.compile text with
  | [] -> raise (Bad_request "serve: no functions in inline program")
  | fs -> fs
  | exception Frontend.Parser.Error (msg, line) ->
    raise (Bad_request (Printf.sprintf "inline:%d: %s" line msg))

(* The protocol is strictly line-oriented, so multi-line diagnostics (the
   pass-registry listing after an unknown pass name, say) are trimmed to
   their first line — which carries the verdict and the "did you mean". *)
let one_line msg =
  match String.index_opt msg '\n' with
  | Some i -> String.sub msg 0 i
  | None -> msg

let ok_reply ~tag body =
  match tag with
  | None -> "ok " ^ body
  | Some t -> Printf.sprintf "ok tag=%s %s" t body

let err_reply ~tag status msg =
  match tag with
  | None -> Printf.sprintf "err status=%s %s" status msg
  | Some t -> Printf.sprintf "err tag=%s status=%s %s" t status msg

let busy_reply ?tag () = err_reply ~tag "busy" "server saturated, retry later"

(* ------------------------------------------------------------------ *)
(* Reader-side classification: cheap, never raises, never touches the
   filesystem — what a connection's reader thread uses for admission
   control before any expensive work is queued.                        *)
(* ------------------------------------------------------------------ *)

type class_ =
  | Silent  (** blank line or comment: no response at all *)
  | Quit  (** quit/exit: respond "ok bye" and end the session *)
  | Stats of string option
      (** stats request (with its tag): answered out-of-band so it works
          even when the pending queue is saturated *)
  | Work of string option
      (** anything else (with its tag when recoverable): worth queueing *)

let words_of line = List.filter (fun w -> w <> "") (String.split_on_char ' ' line)

let classify line =
  match words_of line with
  | [] -> Silent
  | w :: _ when w.[0] = '#' -> Silent
  | [ "quit" ] | [ "exit" ] -> Quit
  | words -> (
    match extract "--tag" words with
    | exception Bad_request _ -> Work None
    | tag, [ "stats" ] -> Stats tag
    | tag, _ -> Work tag)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type reply = Reply of string | No_reply | Bye of string

let eval_request ~compile ~stats ~tag words =
  match words with
  | [] -> raise (Bad_request "serve: empty request")
  | verb :: rest -> (
    let spec, rest = extract "--passes" rest in
    match verb with
    | "compile" -> (
      match rest with
      | [ path ] ->
        let _, note = compile (pipeline spec) (Frontend.Load.file path) in
        ok_reply ~tag note
      | _ -> raise (Bad_request "serve: usage: compile [--passes SPEC] PATH"))
    | "inline" ->
      if rest = [] then
        raise (Bad_request "serve: usage: inline [--passes SPEC] PROGRAM")
      else
        let funcs = parse_inline (String.concat " " rest) in
        let _, note = compile (pipeline spec) funcs in
        ok_reply ~tag note
    | "run" -> (
      let args, rest = extract "--args" rest in
      let vals = Option.fold ~none:[] ~some:values_of_string args in
      match rest with
      | [ path ] ->
        let funcs = Frontend.Load.file path in
        let reports, _ = compile (pipeline spec) funcs in
        let outcomes =
          List.map
            (fun (r : Driver.Pipeline.report) ->
              let o = Interp.run ~args:vals r.output in
              Printf.sprintf "%s=%s" r.output.Ir.name
                (match o.return_value with
                | Some v -> Ir.Printer.value_to_string v
                | None -> "(nothing)"))
            reports
        in
        ok_reply ~tag ("ran " ^ String.concat " " outcomes)
      | _ ->
        raise
          (Bad_request "serve: usage: run [--args V,..] [--passes SPEC] PATH"))
    | "stats" ->
      if rest = [] && spec = None then ok_reply ~tag (stats ())
      else raise (Bad_request "serve: usage: stats")
    | _ ->
      raise
        (Bad_request
           (Printf.sprintf
              "serve: unknown request '%s' (requests: compile, inline, run, \
               quit)"
              verb)))

(* Per-request degradation: anything the CLI's top-level handler would
   turn into exit 2 or 3 becomes an err response with that status, and
   the session keeps serving. *)
let respond ~compile ~stats line =
  match words_of line with
  | [] -> No_reply
  | w :: _ when w.[0] = '#' -> No_reply
  | [ "quit" ] | [ "exit" ] -> Bye "ok bye"
  | words -> (
    match extract "--tag" words with
    | exception Bad_request msg ->
      Reply
        (err_reply ~tag:None
           (string_of_int status_bad_request)
           (one_line msg))
    | tag, words -> (
      let err status msg =
        Reply (err_reply ~tag (string_of_int status) (one_line msg))
      in
      match eval_request ~compile ~stats ~tag words with
      | body -> Reply body
      | exception (Bad_request msg | Frontend.Load.Error msg | Sys_error msg)
        ->
        err status_bad_request msg
      | exception Ir.Validate.Invalid msg ->
        err status_bad_request ("invalid input: " ^ msg)
      | exception Invalid_argument msg ->
        (* e.g. Interp.run on a wrong argument count: bad request, not a
           server fault. *)
        err status_bad_request msg
      | exception Interp.Error e ->
        err status_fault
          (Format.asprintf "runtime fault: %a" Interp.pp_error e)
      | exception Check.Failed msg -> err status_fault msg))

(* ------------------------------------------------------------------ *)
(* The standard single-client compile callback                         *)
(* ------------------------------------------------------------------ *)

(* Compile a batch on the warm pool, reporting this request's cache-stat
   delta so a scripted session shows cold misses turning into warm hits.
   A duplicate that collapsed onto its in-flight original got a result
   without a compilation of its own, so it counts as a hit, as in the
   concurrent server's reply. Without a cache every function is compiled,
   so each is a miss, again as there: hits + misses = funcs on both
   transports. Only meaningful when the caller is the cache's sole client
   — the concurrent server computes per-request counts instead. *)
let batch_compile ~pool ~cache pipeline funcs =
  let before = Option.map Cache.stats cache in
  let reports =
    Driver.Pipeline.compile_batch_passes_in pool ?cache pipeline funcs
  in
  let hits, misses =
    match cache, before with
    | Some c, Some before ->
      let after = Cache.stats c in
      ( after.Cache.hits + after.Cache.dedup_collapsed
        - (before.Cache.hits + before.Cache.dedup_collapsed),
        after.Cache.misses - before.Cache.misses )
    | _ -> (0, List.length reports)
  in
  let copies =
    List.fold_left
      (fun acc (r : Driver.Pipeline.report) -> acc + Ir.count_copies r.output)
      0 reports
  in
  ( reports,
    Printf.sprintf "funcs=%d copies=%d hits=%d misses=%d"
      (List.length reports) copies hits misses )
