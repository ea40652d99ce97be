type t =
  | Given_names of string array
  | Versions of { base : t; origin : int array; version : int array; count : int }
  | Temps of { base : t; first : int; numbered : bool; prefixes : string array }

type view =
  | Unnamed
  | Given of string
  | Version of { base : t; origin : int; version : int }
  | Temp of { prefix : string; numbered : bool }

let empty = Given_names [||]
let given a = Given_names a

let versions ~base ~origin ~version ~count =
  Versions { base; origin; version; count }

let temps base ~first ~numbered prefixes =
  if Array.length prefixes = 0 then base
  else Temps { base; first; numbered; prefixes }

let rec view t r =
  match t with
  | Given_names a ->
    if r >= 0 && r < Array.length a && a.(r) <> "" then Given a.(r) else Unnamed
  | Versions { base; origin; version; count } ->
    if r >= 0 && r < count then
      Version { base; origin = origin.(r); version = version.(r) }
    else Unnamed
  | Temps { base; first; numbered; prefixes } ->
    let i = r - first in
    if i >= 0 && i < Array.length prefixes then
      Temp { prefix = prefixes.(i); numbered }
    else view base r
