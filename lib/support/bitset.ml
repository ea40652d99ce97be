type t = {
  bits : Bytes.t;
  capacity : int;
}

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; capacity = n }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (i land 7))))

let remove t i =
  check t i;
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.chr
       (Char.code (Bytes.unsafe_get t.bits b) land lnot (1 lsl (i land 7)) land 0xff))

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let fill t =
  let full = t.capacity lsr 3 in
  Bytes.fill t.bits 0 full '\255';
  let rem = t.capacity land 7 in
  if rem <> 0 then Bytes.unsafe_set t.bits full (Char.unsafe_chr ((1 lsl rem) - 1))

let copy t = { t with bits = Bytes.copy t.bits }

(* Word kernels. The set operations below step through the bytes eight at a
   time with unchecked native-endian 64-bit loads and stores, then finish the
   last [length mod 8] bytes one at a time. Every bit at or above [capacity]
   stays zero (only [add] and [fill] set bits, both within range), so the
   kernels never need a mask. Byte order only matters where element numbers
   come out, and [iter] takes those from the bytes themselves. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let byte bits i = Char.code (Bytes.unsafe_get bits i)
let set_byte bits i c = Bytes.unsafe_set bits i (Char.unsafe_chr c)

(* Byte offset where the tail starts: the prefix is whole 8-byte words. *)
let word_end bits = Bytes.length bits land lnot 7

let[@inline] popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let cardinal t =
  let bits = t.bits in
  let we = word_end bits in
  let n = ref 0 in
  let i = ref 0 in
  while !i < we do
    n := !n + popcount64 (get64 bits !i);
    i := !i + 8
  done;
  for b = we to Bytes.length bits - 1 do
    n := !n + popcount64 (Int64.of_int (byte bits b))
  done;
  !n

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  Bytes.equal a.bits b.bits

let union_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  let we = word_end d in
  let changed = ref false in
  let i = ref 0 in
  while !i < we do
    let x = get64 d !i in
    let y = Int64.logor x (get64 s !i) in
    if y <> x then begin
      changed := true;
      set64 d !i y
    end;
    i := !i + 8
  done;
  for b = we to Bytes.length d - 1 do
    let x = byte d b in
    let y = x lor byte s b in
    if y <> x then begin
      changed := true;
      set_byte d b y
    end
  done;
  !changed

let diff_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  let we = word_end d in
  let i = ref 0 in
  while !i < we do
    set64 d !i (Int64.logand (get64 d !i) (Int64.lognot (get64 s !i)));
    i := !i + 8
  done;
  for b = we to Bytes.length d - 1 do
    set_byte d b (byte d b land lnot (byte s b) land 0xff)
  done

let inter_into ~dst src =
  same_capacity dst src;
  let d = dst.bits and s = src.bits in
  let we = word_end d in
  let i = ref 0 in
  while !i < we do
    set64 d !i (Int64.logand (get64 d !i) (get64 s !i));
    i := !i + 8
  done;
  for b = we to Bytes.length d - 1 do
    set_byte d b (byte d b land byte s b)
  done

let blit ~src ~dst =
  same_capacity dst src;
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

(* Elements of byte [b], whose value is [c], in increasing order. *)
let iter_byte f b c =
  if c <> 0 then
    for k = 0 to 7 do
      if c land (1 lsl k) <> 0 then f ((b lsl 3) lor k)
    done

let iter f t =
  let bits = t.bits in
  let we = word_end bits in
  let i = ref 0 in
  while !i < we do
    if get64 bits !i <> 0L then
      for b = !i to !i + 7 do
        iter_byte f b (byte bits b)
      done;
    i := !i + 8
  done;
  for b = we to Bytes.length bits - 1 do
    iter_byte f b (byte bits b)
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let is_empty t =
  let bits = t.bits in
  let we = word_end bits in
  let i = ref 0 in
  while !i < we && get64 bits !i = 0L do
    i := !i + 8
  done;
  if !i < we then false
  else begin
    let b = ref we in
    while !b < Bytes.length bits && byte bits !b = 0 do
      incr b
    done;
    !b = Bytes.length bits
  end

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let memory_bytes t = Bytes.length t.bits

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (elements t)
