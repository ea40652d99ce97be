(** The serve line protocol: parsing, evaluation and reply formatting.

    One request per line, one response per line; the grammar and the
    exact response strings are shared by [repro-cli serve]'s single-client
    stdin loop and the concurrent socket {!Server}, so a scripted stdin
    session and a TCP session observe identical protocol behavior.

    {v
    compile [--passes SPEC] PATH            compile every function in a file
    inline  [--passes SPEC] PROGRAM         compile one-line source text
    run [--args V,..] [--passes SPEC] PATH  compile, then interpret
    stats                                   one-line server/cache counters
    quit | exit                             "ok bye", end of session
    # comment / blank                       ignored, no response
    v}

    Any request may carry [--tag T]; the tag is echoed in the response
    (["ok tag=T ..."], ["err tag=T status=N ..."]) so pipelining clients
    can correlate replies. Error responses reuse the CLI exit-code
    taxonomy as their status field (2 bad request, including input that is
    not a strict, φ-free CFG; 3 runtime fault), plus the server-only
    ["err status=busy"] shed reply. Files load through {!Frontend.Load},
    the CLI's loader. *)

exception Bad_request of string
(** An unparsable or malformed request; {!respond} turns it into an
    ["err status=2"] reply rather than ending the session. *)

val status_bad_request : int
(** 2 — mirrors the CLI's parse-error exit code. *)

val status_fault : int
(** 3 — mirrors the CLI's runtime-fault exit code. *)

val values_of_string : string -> Ir.value list
(** Parse a comma-separated [--args] value list (integers and floats).
    Raises {!Bad_request} on a malformed value. *)

val extract : string -> string list -> string option * string list
(** [extract "--opt" words] pulls the first ["--opt VALUE"] pair out of a
    token list, returning the value and the remaining tokens in order.
    Raises {!Bad_request} when ["--opt"] is the last token. *)

val pipeline : string option -> Pass.Pipeline.t
(** The pipeline a request denotes: the paper's New route
    ["construct:pruned,coalesce"], or the parsed [--passes] spec. Raises
    {!Bad_request} on a bad spec. *)

val parse_inline : string -> Ir.func list
(** Parse one-line mini-language text. Raises {!Bad_request} on parse
    errors or an empty program. *)

val one_line : string -> string
(** Trim a possibly multi-line diagnostic to its first line, which
    carries the verdict and any "did you mean". *)

val ok_reply : tag:string option -> string -> string
(** ["ok BODY"], or ["ok tag=T BODY"] when the request carried a tag. *)

val err_reply : tag:string option -> string -> string -> string
(** [err_reply ~tag status msg] is ["err status=STATUS MSG"] with the
    optional ["tag=T"] echoed between [err] and [status]. *)

val busy_reply : ?tag:string -> unit -> string
(** The admission-control shed response: ["err status=busy server
    saturated, retry later"], tagged when the request was. *)

(** Reader-side classification — cheap, never raises, never touches the
    filesystem. A connection's reader thread uses it to decide, before
    any expensive work is queued, whether a line needs no response, ends
    the session, is answered out-of-band (stats), or must be admitted to
    the pending queue. *)
type class_ =
  | Silent  (** blank line or comment: no response at all *)
  | Quit  (** quit/exit: respond "ok bye" and end the session *)
  | Stats of string option
      (** stats request (with its tag): answered out-of-band so it works
          even when the pending queue is saturated *)
  | Work of string option
      (** anything else (with its tag when recoverable): worth queueing *)

val classify : string -> class_
(** Classify one request line. Total: malformed lines classify as
    {!Work} and produce their diagnostic later, from {!respond}. *)

type reply =
  | Reply of string  (** write this line back *)
  | No_reply  (** comment/blank: write nothing *)
  | Bye of string  (** write this line, then end the session *)

val respond :
  compile:
    (Pass.Pipeline.t ->
    Ir.func list ->
    Driver.Pipeline.report list * string) ->
  stats:(unit -> string) ->
  string ->
  reply
(** Evaluate one request line to its reply. [compile] runs a pipeline
    over the request's functions and returns the reports plus the
    one-line summary used as the [ok] body (the transport chooses the
    strategy: a warm-pool batch for the stdin loop, one function at a
    time for the socket server; both read through
    {!Cache.compute_through}). [stats] produces the
    body of the [stats] response. Every protocol-level failure — bad
    request, missing or unparsable file, input that is not a strict,
    φ-free CFG ({!Ir.Validate.Invalid}), interpreter fault — becomes an
    [err] reply with the appropriate status; {!respond} itself only lets truly
    unexpected exceptions escape. *)

val batch_compile :
  pool:Engine.Pool.t ->
  cache:Cache.t option ->
  Pass.Pipeline.t ->
  Ir.func list ->
  Driver.Pipeline.report list * string
(** The standard single-client [compile] callback: compile the batch on
    the warm pool with {!Driver.Pipeline.compile_batch_passes_in}, each
    function reading through {!Cache.compute_through}, and report this
    request's cache-stat delta ["funcs=%d copies=%d hits=%d misses=%d"].
    A duplicate inside one request counts as a hit, whether it found its
    original cached or collapsed onto it in flight. Without a cache every
    function is a miss, as in the socket server's reply, so hits + misses
    = funcs on both transports. Only meaningful when
    the caller is the cache's sole client — the concurrent server
    computes per-request counts instead. *)
