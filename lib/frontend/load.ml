exception Error of string

let file path =
  let source = In_channel.with_open_bin path In_channel.input_all in
  let located msg line = Error (Printf.sprintf "%s:%d: %s" path line msg) in
  let funcs =
    if Filename.check_suffix path ".ir" then
      try Ir.Parse.funcs_of_string source
      with Ir.Parse.Error (msg, line) -> raise (located msg line)
    else
      try Lower.compile source
      with Parser.Error (msg, line) -> raise (located msg line)
  in
  if funcs = [] then raise (Error (path ^ ": no functions in input"));
  funcs
