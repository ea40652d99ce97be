(** Umbrella module for the [ir] library: the core types live in {!Mir} and
    are re-exported here, so users write [Ir.func], [Ir.Cfg.of_func],
    [Ir.Builder.create], … *)

include Mir
module Mir = Mir
module Names = Names
module Cfg = Cfg
module Builder = Builder
module Printer = Printer
module Validate = Validate
module Edge_split = Edge_split
module Parse = Parse
module Dot = Dot
