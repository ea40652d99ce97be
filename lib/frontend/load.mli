(** Source files to IR: the one loader behind the CLI and the serve
    protocol, so both accept the same grammar and print the same
    diagnostics. *)

exception Error of string
(** The file parsed to no function, or did not parse; the message is
    located, ["PATH:LINE: what"]. *)

val file : string -> Ir.func list
(** Mini-language source by default; a path ending in [.ir] holds the
    textual IR syntax of {!Ir.Printer}/{!Ir.Parse}. Raises {!Error} on a
    parse error or an empty file, and [Sys_error] when the file cannot be
    read. The functions are not validated: the pipeline's door
    ([Pass.run]) does that. *)
