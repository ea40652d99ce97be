(** Parser for the textual IR syntax produced by {!Printer}.

    Round-tripping ([Parse.func_of_string (Printer.func_to_string f)]) yields
    a function that prints identically, which the test suite checks as a
    property. The syntax also makes hand-written test cases and CLI input
    pleasant:

    {v
    func swap(p) {  # entry b0
    b0:
      a := add p, 1
      br p, b1, b2
    b1:
      x := phi [b0: a] [b1: x]
      jump b1
    b2:
      ret a
    }
    v}

    Registers are named; each distinct name becomes a register (and its
    pretty-printing hint), numbered in order of first occurrence. Register
    names that collide with instruction mnemonics ([add], [phi], [jump],
    …) are rejected. Block labels index the function's block array, so a
    defined label must be below the function's line count (from [func]
    to its closing brace) and appear once; gaps become empty [ret]
    blocks. Parsing is linear in the input, and every malformed input,
    however hostile, raises {!Error} with the offending line. *)

exception Error of string * int
(** Message and line number. *)

val func_of_string : string -> Mir.func
(** Parse exactly one function. *)

val funcs_of_string : string -> Mir.func list
