(* The matrix uses the first [nbytes] bytes of [bits], which may be longer
   when the buffer is reused from a larger matrix. *)
type t = {
  bits : Bytes.t;
  size : int;
  nbytes : int;
}

(* Pair (i, j) with i > j is stored at triangular index i*(i-1)/2 + j. *)

let create ?reuse n =
  if n < 0 then invalid_arg "Bit_matrix.create";
  let nbytes = ((n * (n - 1) / 2) + 7) / 8 in
  match reuse with
  | Some m when Bytes.length m.bits >= nbytes ->
    Bytes.fill m.bits 0 nbytes '\000';
    { bits = m.bits; size = n; nbytes }
  | Some _ | None -> { bits = Bytes.make nbytes '\000'; size = n; nbytes }

let size t = t.size

let index t i j =
  if i < 0 || i >= t.size || j < 0 || j >= t.size then
    invalid_arg "Bit_matrix: index out of range";
  let i, j = if i > j then i, j else j, i in
  (i * (i - 1) / 2) + j

let set t i j =
  if i <> j then begin
    let k = index t i j in
    let b = k lsr 3 in
    Bytes.unsafe_set t.bits b
      (Char.chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (k land 7))))
  end

let get t i j =
  if i = j then false
  else begin
    let k = index t i j in
    Char.code (Bytes.unsafe_get t.bits (k lsr 3)) land (1 lsl (k land 7)) <> 0
  end

let clear t = Bytes.fill t.bits 0 t.nbytes '\000'

let count t =
  let popcount_byte c =
    let rec loop c acc = if c = 0 then acc else loop (c lsr 1) (acc + (c land 1)) in
    loop (Char.code c) 0
  in
  let n = ref 0 in
  for b = 0 to t.nbytes - 1 do
    n := !n + popcount_byte (Bytes.get t.bits b)
  done;
  !n

let memory_bytes t = t.nbytes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.size - 1 do
    for j = 0 to i - 1 do
      if get t i j then Format.fprintf ppf "(%d,%d)@ " i j
    done
  done;
  Format.fprintf ppf "@]"
