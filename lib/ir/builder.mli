(** Imperative construction of {!Mir.func} values.

    The builder mints registers and blocks, accumulates instructions, and
    checks on [finish] that every block was terminated. It is the API the
    front end, the tests and the examples use to create functions. *)

type t

val create : string -> t
(** [create name] starts a function called [name]. *)

val fresh_reg : ?name:string -> t -> Mir.reg
(** Mint a register, optionally with a name to print it by (an empty name
    counts as none). *)

val add_param : ?name:string -> t -> Mir.reg
(** Mint a register and append it to the parameter list. *)

val add_block : t -> Mir.label
(** Mint an empty, unterminated block. The first block added is the entry
    unless {!set_entry} overrides it. *)

val set_entry : t -> Mir.label -> unit

val push : t -> Mir.label -> Mir.instr -> unit
(** Append an instruction to a block's body. *)

val push_phi : t -> Mir.label -> Mir.phi -> unit

val terminate : t -> Mir.label -> Mir.terminator -> unit
(** Set the block's terminator. Raises if already terminated. *)

val is_terminated : t -> Mir.label -> bool

val num_blocks : t -> int
(** Blocks created so far. *)

val finish : t -> Mir.func
(** Freeze the function. Raises [Failure] if a block lacks a terminator or
    no block was created. *)
