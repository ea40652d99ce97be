(** Register names: a view, formatted only when something prints it.

    A pass that creates registers records where each name comes from (a
    few int or pointer writes per register) instead of building a string.
    {!Mir.reg_name} is the one function that turns a {!view} into text;
    {!Printer} calls it once per register of the function it prints.

    Three representations cover every pass:
    - {b given} names, from the frontend's {!Builder} or from IR text;
    - {b SSA versions}: each register of a converted function is version
      [v] of some input register, printed [<input name>.<v>];
    - a short {b temporary overlay} over another name table: the parallel
      copy, spill and colour temporaries a conversion or allocator adds,
      printed as a fixed prefix, optionally followed by the register
      number.

    A [t] is immutable once built: no memo, no lazy field. Cached reports
    are read by several domains at once. *)

type t

val empty : t
(** No register has a name; every register prints as [r<N>]. *)

val given : string array -> t
(** [given a] names register [r] [a.(r)]. Registers past the array, and
    entries equal to [""], are unnamed. The caller hands the array over and
    must not mutate it afterwards. *)

val versions : base:t -> origin:int array -> version:int array -> count:int -> t
(** Registers [0 .. count-1] are SSA versions: register [r] is version
    [version.(r)] of register [origin.(r)] named in [base]. Registers from
    [count] on are unnamed. The arrays are handed over as with {!given}. *)

val temps : t -> first:int -> numbered:bool -> string array -> t
(** [temps base ~first ~numbered prefixes] names register [first + i]
    [prefixes.(i)], followed by the register number when [numbered]; every
    other register keeps its name in [base]. The array is handed over as
    with {!given}. *)

(** What a register's name is made of. *)
type view =
  | Unnamed  (** printed [r<N>] *)
  | Given of string
  | Version of { base : t; origin : int; version : int }
      (** printed [<name of origin in base>.<version>] *)
  | Temp of { prefix : string; numbered : bool }
      (** printed [<prefix><N>] when [numbered], else [<prefix>] *)

val view : t -> int -> view
(** [view t r] is what register [r]'s name is made of. O(depth of the
    overlays); nothing is formatted. *)
