(** Textual rendering of the IR: one Buffer-based printer for the concrete
    syntax {!Parse} reads back, used for debugging, tests, examples, the
    corpus file format and the compile cache's content address. *)

val add_func : Buffer.t -> Mir.func -> unit
(** Append the canonical printed form of a function (no trailing newline). *)

val func_to_string : Mir.func -> string
(** {!add_func} to a fresh string — the canonical printed form: stable under
    print-parse round-trips (a test_ir property), and therefore what the
    compile cache hashes as the content of a function. *)

val value_to_string : Mir.value -> string
(** A constant as it appears in instruction operands ([%d] or [%g]). *)

val block_lines : Mir.func -> Mir.block -> string list
(** A block's φs, body and terminator, one unindented line each; apply it
    to the function once to share the name table across its blocks. *)
