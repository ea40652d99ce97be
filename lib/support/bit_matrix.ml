(* The matrix uses the first [nbytes] bytes of [bits], which may be longer
   when the buffer is reused from a larger matrix. *)
type t = {
  bits : Bytes.t;
  size : int;
  nbytes : int;
}

(* Pair (i, j) with i > j is stored at triangular index i*(i-1)/2 + j, so
   row i's pairs with smaller nodes sit at the i contiguous bits from
   [base i], and its pairs with larger nodes x form a column whose index
   steps by x from one x to the next. *)
let[@inline] base i = i * (i - 1) / 2
let[@inline] tri i j = if i > j then base i + j else base j + i

let create ?reuse n =
  if n < 0 then invalid_arg "Bit_matrix.create";
  let nbytes = (base n + 7) / 8 in
  match reuse with
  | Some m when Bytes.length m.bits >= nbytes ->
    Bytes.fill m.bits 0 nbytes '\000';
    { bits = m.bits; size = n; nbytes }
  | Some _ | None -> { bits = Bytes.make nbytes '\000'; size = n; nbytes }

let size t = t.size

let check_row t i =
  if i < 0 || i >= t.size then invalid_arg "Bit_matrix: index out of range"

let index t i j =
  check_row t i;
  check_row t j;
  tri i j

(* Byte access and the lowest-bit table are local rather than shared with
   [Bitset]: a development build compiles each module opaquely, so a call
   across modules is never inlined, and these sit in the inner loops. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] byte bits i = Char.code (Bytes.unsafe_get bits i)
let[@inline] set_byte bits i c = Bytes.unsafe_set bits i (Char.unsafe_chr c)

(* Position of the lowest set bit of each non-zero byte value. *)
let lowest_bit =
  String.init 256 (fun c ->
      let rec go k = if k = 7 || c land (1 lsl k) <> 0 then k else go (k + 1) in
      Char.chr (go 0))

let[@inline] lowest8 c = Char.code (String.unsafe_get lowest_bit c)
let[@inline] bit bits k = byte bits (k lsr 3) land (1 lsl (k land 7)) <> 0

(* Set bit [k]; [true] iff it was clear. *)
let[@inline] test_and_set_bit bits k =
  let b = k lsr 3 in
  let c = byte bits b in
  let m = 1 lsl (k land 7) in
  if c land m <> 0 then false
  else begin
    set_byte bits b (c lor m);
    true
  end

let set t i j = if i <> j then ignore (test_and_set_bit t.bits (index t i j))
let get t i j = i <> j && bit t.bits (index t i j)
let clear t = Bytes.fill t.bits 0 t.nbytes '\000'

(* The first set bit in [k, hi), or an index at or above [hi] if there is
   none: the rest of [k]'s byte, then zero words skipped whole, then the
   first non-zero byte's lowest bit. Only bytes up to [(hi - 1) / 8] are
   read, all inside the matrix. *)
let next_set bits k hi =
  if k >= hi then hi
  else begin
    let last = (hi - 1) lsr 3 in
    let b = ref (k lsr 3) in
    let c = ref (byte bits !b land (0xff lsl (k land 7)) land 0xff) in
    while !c = 0 && !b < last do
      incr b;
      while !b + 7 <= last && get64 bits !b = 0L do
        b := !b + 8
      done;
      if !b <= last then c := byte bits !b
    done;
    if !c = 0 then hi else (!b lsl 3) lor lowest8 !c
  end

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

let union_row t ~into:a b =
  check_row t a;
  check_row t b;
  if a = b then 0
  else begin
    let bits = t.bits in
    let added = ref 0 in
    let lo = base b in
    let hi = lo + b in
    let k = ref (next_set bits lo hi) in
    while !k < hi do
      let x = !k - lo in
      if x <> a && test_and_set_bit bits (tri a x) then incr added;
      k := next_set bits (!k + 1) hi
    done;
    let k = ref (base (b + 1) + b) in
    for x = b + 1 to t.size - 1 do
      if bit bits !k && x <> a && test_and_set_bit bits (tri a x) then incr added;
      k := !k + x
    done;
    !added
  end

let union_set ?map t i s =
  check_row t i;
  let bits = t.bits in
  let added = ref 0 in
  let r = ref (Bitset.next s 0) in
  (match map with
  | None ->
    if Bitset.capacity s > t.size then invalid_arg "Bit_matrix.union_set: set too wide";
    while !r >= 0 do
      if !r <> i && test_and_set_bit bits (tri i !r) then incr added;
      r := Bitset.next s (!r + 1)
    done
  | Some map ->
    if Array.length map < Bitset.capacity s then
      invalid_arg "Bit_matrix.union_set: map too short";
    while !r >= 0 do
      let x = Array.unsafe_get map !r in
      if x >= 0 && x <> i then begin
        if x >= t.size then invalid_arg "Bit_matrix.union_set: map out of range";
        if test_and_set_bit bits (tri i x) then incr added
      end;
      r := Bitset.next s (!r + 1)
    done);
  !added

let iter_row f t i =
  check_row t i;
  let bits = t.bits in
  let lo = base i in
  let hi = lo + i in
  let k = ref (next_set bits lo hi) in
  while !k < hi do
    f (!k - lo);
    k := next_set bits (!k + 1) hi
  done;
  let k = ref (base (i + 1) + i) in
  for x = i + 1 to t.size - 1 do
    if bit bits !k then f x;
    k := !k + x
  done

let row_count t i =
  check_row t i;
  let bits = t.bits in
  let n = ref 0 in
  let lo = base i in
  let hi = lo + i in
  let k = ref (next_set bits lo hi) in
  while !k < hi do
    incr n;
    k := next_set bits (!k + 1) hi
  done;
  let k = ref (base (i + 1) + i) in
  for x = i + 1 to t.size - 1 do
    if bit bits !k then incr n;
    k := !k + x
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
