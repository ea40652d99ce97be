(* A set is a view of [⌈capacity/8⌉] bytes at [off] in [bits]: a stand-alone
   set owns its buffer ([off] = 0), a matrix row shares its matrix's. *)
type t = {
  bits : Bytes.t;
  off : int;
  capacity : int;
}

let width n = (n + 7) / 8

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make (width n) '\000'; off = 0; capacity = n }

let capacity t = t.capacity

(* Word kernels. Every operation on sets and on matrix rows runs through the
   functions below, which take a buffer and a byte offset per operand and a
   byte length [len]. They step eight bytes at a time with unchecked
   native-endian 64-bit loads and stores (unaligned when a row width is not
   a multiple of eight), then finish the last [len mod 8] bytes one at a
   time. Every bit at or above [capacity] stays zero (only [add] and [fill]
   set bits, both within range), so the kernels never need a mask. Byte
   order only matters where element numbers come out, and [iter] takes
   those from the bytes themselves. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let byte bits i = Char.code (Bytes.unsafe_get bits i)
let set_byte bits i c = Bytes.unsafe_set bits i (Char.unsafe_chr c)

(* Length of the prefix made of whole 8-byte words. *)
let words len = len land lnot 7

let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let k_mem bits off i =
  byte bits (off + (i lsr 3)) land (1 lsl (i land 7)) <> 0

let k_add bits off i =
  let b = off + (i lsr 3) in
  set_byte bits b (byte bits b lor (1 lsl (i land 7)))

let k_remove bits off i =
  let b = off + (i lsr 3) in
  set_byte bits b (byte bits b land lnot (1 lsl (i land 7)) land 0xff)

let k_fill bits off capacity =
  let full = capacity lsr 3 in
  Bytes.fill bits off full '\255';
  let rem = capacity land 7 in
  if rem <> 0 then set_byte bits (off + full) ((1 lsl rem) - 1)

let k_cardinal bits off len =
  let n = ref 0 in
  let i = ref 0 in
  while !i < words len do
    n := !n + popcount64 (get64 bits (off + !i));
    i := !i + 8
  done;
  for b = words len to len - 1 do
    n := !n + popcount64 (Int64.of_int (byte bits (off + b)))
  done;
  !n

let k_equal a ao b bo len =
  let i = ref 0 in
  while !i < words len && get64 a (ao + !i) = get64 b (bo + !i) do
    i := !i + 8
  done;
  if !i < words len then false
  else begin
    let k = ref (words len) in
    while !k < len && byte a (ao + !k) = byte b (bo + !k) do
      incr k
    done;
    !k = len
  end

(* [d |= s], or [d |= s \ m] when [minus] ([m] is not read otherwise).
   Returns [true] iff [d] changed. *)
let k_union d doff s soff m moff ~minus len =
  let changed = ref false in
  let i = ref 0 in
  while !i < words len do
    let x = get64 d (doff + !i) in
    let y = get64 s (soff + !i) in
    let y = if minus then Int64.logand y (Int64.lognot (get64 m (moff + !i))) else y in
    let y = Int64.logor x y in
    if y <> x then begin
      changed := true;
      set64 d (doff + !i) y
    end;
    i := !i + 8
  done;
  for b = words len to len - 1 do
    let x = byte d (doff + b) in
    let y = byte s (soff + b) in
    let y = if minus then y land lnot (byte m (moff + b)) land 0xff else y in
    let y = x lor y in
    if y <> x then begin
      changed := true;
      set_byte d (doff + b) y
    end
  done;
  !changed

let k_diff d doff s soff len =
  let i = ref 0 in
  while !i < words len do
    let j = doff + !i in
    set64 d j (Int64.logand (get64 d j) (Int64.lognot (get64 s (soff + !i))));
    i := !i + 8
  done;
  for b = words len to len - 1 do
    set_byte d (doff + b) (byte d (doff + b) land lnot (byte s (soff + b)) land 0xff)
  done

let k_inter d doff s soff len =
  let i = ref 0 in
  while !i < words len do
    let j = doff + !i in
    set64 d j (Int64.logand (get64 d j) (get64 s (soff + !i)));
    i := !i + 8
  done;
  for b = words len to len - 1 do
    set_byte d (doff + b) (byte d (doff + b) land byte s (soff + b))
  done

(* Position of the lowest set bit of each non-zero byte value. *)
let lowest_bit =
  String.init 256 (fun c ->
      let rec go k = if k = 7 || c land (1 lsl k) <> 0 then k else go (k + 1) in
      Char.chr (go 0))

(* Elements of byte [b] (numbered from the set's start), whose value is
   [c], in increasing order: take the lowest set bit and clear it until
   none is left, so a byte costs one step per element, not eight. *)
let iter_byte f b c =
  let c = ref c in
  while !c <> 0 do
    f ((b lsl 3) lor Char.code (String.unsafe_get lowest_bit !c));
    c := !c land (!c - 1)
  done

let k_iter f bits off len =
  let i = ref 0 in
  while !i < words len do
    if get64 bits (off + !i) <> 0L then
      for b = !i to !i + 7 do
        iter_byte f b (byte bits (off + b))
      done;
    i := !i + 8
  done;
  for b = words len to len - 1 do
    iter_byte f b (byte bits (off + b))
  done

(* The least element at or above [i] (numbered from the set's start), or
   [-1]: the rest of [i]'s byte, then zero words skipped whole, then the
   first non-zero byte's lowest bit. *)
let k_next bits off len i =
  let b = ref (i lsr 3) in
  if !b >= len then -1
  else begin
    let c = ref (byte bits (off + !b) land (0xff lsl (i land 7)) land 0xff) in
    while !c = 0 && !b < len - 1 do
      incr b;
      while !b + 8 <= len && get64 bits (off + !b) = 0L do
        b := !b + 8
      done;
      if !b < len then c := byte bits (off + !b)
    done;
    if !c = 0 then -1 else (!b lsl 3) lor Char.code (String.unsafe_get lowest_bit !c)
  end

let k_is_empty bits off len =
  let i = ref 0 in
  while !i < words len && get64 bits (off + !i) = 0L do
    i := !i + 8
  done;
  if !i < words len then false
  else begin
    let b = ref (words len) in
    while !b < len && byte bits (off + !b) = 0 do
      incr b
    done;
    !b = len
  end

(* Sets. *)

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let mem t i =
  check t i;
  k_mem t.bits t.off i

let add t i =
  check t i;
  k_add t.bits t.off i

let remove t i =
  check t i;
  k_remove t.bits t.off i

let clear t = Bytes.fill t.bits t.off (width t.capacity) '\000'
let fill t = k_fill t.bits t.off t.capacity

let copy t =
  { bits = Bytes.sub t.bits t.off (width t.capacity); off = 0; capacity = t.capacity }

let cardinal t = k_cardinal t.bits t.off (width t.capacity)

let equal a b =
  same_capacity a b;
  k_equal a.bits a.off b.bits b.off (width a.capacity)

let union_into ~dst src =
  same_capacity dst src;
  k_union dst.bits dst.off src.bits src.off src.bits src.off ~minus:false
    (width dst.capacity)

let diff_into ~dst src =
  same_capacity dst src;
  k_diff dst.bits dst.off src.bits src.off (width dst.capacity)

let inter_into ~dst src =
  same_capacity dst src;
  k_inter dst.bits dst.off src.bits src.off (width dst.capacity)

let blit ~src ~dst =
  same_capacity dst src;
  Bytes.blit src.bits src.off dst.bits dst.off (width src.capacity)

let iter f t = k_iter f t.bits t.off (width t.capacity)

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let next t i =
  if i < 0 then invalid_arg "Bitset.next";
  k_next t.bits t.off (width t.capacity) i

let is_empty t = k_is_empty t.bits t.off (width t.capacity)

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let memory_bytes t = width t.capacity

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements t)

module Matrix = struct
  type set = t

  type t = {
    bits : Bytes.t;
    rows : int;
    capacity : int;
    stride : int;  (* bytes per row: [width capacity] *)
  }

  let on_buffer bits ~rows n =
    if rows < 0 || n < 0 || Bytes.length bits < rows * width n then
      invalid_arg "Bitset.Matrix.on_buffer";
    Bytes.fill bits 0 (rows * width n) '\000';
    { bits; rows; capacity = n; stride = width n }

  let buffer m = m.bits
  let memory_bytes m = m.rows * m.stride

  let check m r i =
    if r < 0 || r >= m.rows || i < 0 || i >= m.capacity then
      invalid_arg "Bitset.Matrix: index out of range"

  let check_row m r =
    if r < 0 || r >= m.rows then invalid_arg "Bitset.Matrix: row out of range"

  (* Both operands' rows checked, and their widths equal. *)
  let check2 a ra b rb =
    check_row a ra;
    check_row b rb;
    if a.capacity <> b.capacity then invalid_arg "Bitset.Matrix: capacity mismatch"

  let row m r : set =
    check_row m r;
    { bits = m.bits; off = r * m.stride; capacity = m.capacity }

  let mem m r i =
    check m r i;
    k_mem m.bits (r * m.stride) i

  let add m r i =
    check m r i;
    k_add m.bits (r * m.stride) i

  let clear m r =
    check_row m r;
    Bytes.fill m.bits (r * m.stride) m.stride '\000'

  let fill m =
    for r = 0 to m.rows - 1 do
      k_fill m.bits (r * m.stride) m.capacity
    done

  let blit d rd s rs =
    check2 d rd s rs;
    Bytes.blit s.bits (rs * s.stride) d.bits (rd * d.stride) d.stride

  let union_into d rd s rs =
    check2 d rd s rs;
    k_union d.bits (rd * d.stride) s.bits (rs * s.stride) s.bits 0 ~minus:false
      d.stride

  let union_diff_into d rd s rs m rm =
    check2 d rd s rs;
    check2 d rd m rm;
    k_union d.bits (rd * d.stride) s.bits (rs * s.stride) m.bits (rm * m.stride)
      ~minus:true d.stride

  let inter_into d rd s rs =
    check2 d rd s rs;
    k_inter d.bits (rd * d.stride) s.bits (rs * s.stride) d.stride

  let equal a ra b rb =
    check2 a ra b rb;
    k_equal a.bits (ra * a.stride) b.bits (rb * b.stride) a.stride
end
