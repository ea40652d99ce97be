type stats = {
  bitset_hits : int;
  bitset_misses : int;
  array_hits : int;
  array_misses : int;
}

type t = {
  bitsets : (int, Bitset.t list) Hashtbl.t;  (* capacity -> free buffers *)
  mutable buffers : Bytes.t list;  (* free byte buffers, shortest first *)
  arrays : (int, int array list) Hashtbl.t;  (* length -> free buffers *)
  ints : int array array;  (* free flat int buffers, [||] in an empty slot *)
  mutable bitset_hits : int;
  mutable bitset_misses : int;
  mutable array_hits : int;
  mutable array_misses : int;
}

(* Free lists are capped so a long-running domain that once saw a huge
   function does not pin an unbounded amount of memory. *)
let max_free_per_key = 32
let max_free_ints = 8
let max_pooled_ints = 1 lsl 15

let create () =
  {
    bitsets = Hashtbl.create 16;
    buffers = [];
    arrays = Hashtbl.create 16;
    ints = Array.make max_free_ints [||];
    bitset_hits = 0;
    bitset_misses = 0;
    array_hits = 0;
    array_misses = 0;
  }

let key = Domain.DLS.new_key (fun () -> create ())
let domain () = Domain.DLS.get key

let acquire_bitset t n =
  match Hashtbl.find_opt t.bitsets n with
  | Some (b :: rest) ->
    Hashtbl.replace t.bitsets n rest;
    t.bitset_hits <- t.bitset_hits + 1;
    Bitset.clear b;
    b
  | Some [] | None ->
    t.bitset_misses <- t.bitset_misses + 1;
    Bitset.create n

let release_bitset t b =
  let n = Bitset.capacity b in
  let free = Option.value ~default:[] (Hashtbl.find_opt t.bitsets n) in
  if List.length free < max_free_per_key then
    Hashtbl.replace t.bitsets n (b :: free)

(* Matrix buffers are one pool of any length: a matrix takes the shortest
   free buffer that holds it and uses a prefix. A function's analyses hold
   at most four matrices at once, so the pool settles at a few buffers as
   long as the largest function seen, whatever the mix of sizes; it never
   keeps more than [max_free_buffers], dropping the shortest. *)
let max_free_buffers = 4
let max_pooled_bytes = 1 lsl 16

let acquire_bytes t need =
  match List.find_opt (fun b -> Bytes.length b >= need) t.buffers with
  | Some b ->
    t.buffers <- List.filter (fun b' -> b' != b) t.buffers;
    t.bitset_hits <- t.bitset_hits + 1;
    b
  | None ->
    t.bitset_misses <- t.bitset_misses + 1;
    Bytes.create need

let release_bytes t b =
  let rec insert = function
    | [] -> [ b ]
    | b' :: rest when Bytes.length b' < Bytes.length b -> b' :: insert rest
    | l -> b :: l
  in
  let free = if Bytes.length b > max_pooled_bytes then t.buffers else insert t.buffers in
  t.buffers <- (if List.length free > max_free_buffers then List.tl free else free)

let acquire_matrix t ~rows n =
  Bitset.Matrix.on_buffer (acquire_bytes t (rows * ((n + 7) / 8))) ~rows n

let release_matrix t m = release_bytes t (Bitset.Matrix.buffer m)

(* Flat int buffers are one pool of any length: [ints] has a fixed number
   of slots, [||] when empty, so taking and returning a buffer allocates
   nothing. A buffer takes the shortest pooled one that holds it; a full
   pool keeps the longest buffers, and none over [max_pooled_ints] cells
   is kept. *)
let acquire_ints t need =
  let best = ref (-1) in
  for i = 0 to max_free_ints - 1 do
    let len = Array.length t.ints.(i) in
    if len > 0 && len >= need && (!best < 0 || len < Array.length t.ints.(!best))
    then best := i
  done;
  if !best >= 0 then begin
    let a = t.ints.(!best) in
    t.ints.(!best) <- [||];
    t.array_hits <- t.array_hits + 1;
    a
  end
  else begin
    t.array_misses <- t.array_misses + 1;
    Array.make (max need 16) 0
  end

let release_ints t a =
  if Array.length a <= max_pooled_ints then begin
    (* The empty slot if there is one, else the shortest buffer. *)
    let slot = ref 0 in
    for i = 1 to max_free_ints - 1 do
      if Array.length t.ints.(i) < Array.length t.ints.(!slot) then slot := i
    done;
    if Array.length t.ints.(!slot) < Array.length a then t.ints.(!slot) <- a
  end

let grow_ints t a =
  let b = acquire_ints t (2 * Array.length a) in
  Array.blit a 0 b 0 (Array.length a);
  release_ints t a;
  b

let acquire_int_array t n fill =
  match Hashtbl.find_opt t.arrays n with
  | Some (a :: rest) ->
    Hashtbl.replace t.arrays n rest;
    t.array_hits <- t.array_hits + 1;
    Array.fill a 0 n fill;
    a
  | Some [] | None ->
    t.array_misses <- t.array_misses + 1;
    Array.make n fill

let release_int_array t a =
  let n = Array.length a in
  let free = Option.value ~default:[] (Hashtbl.find_opt t.arrays n) in
  if List.length free < max_free_per_key then
    Hashtbl.replace t.arrays n (a :: free)

let stats t =
  {
    bitset_hits = t.bitset_hits;
    bitset_misses = t.bitset_misses;
    array_hits = t.array_hits;
    array_misses = t.array_misses;
  }

let clear t =
  Hashtbl.reset t.bitsets;
  t.buffers <- [];
  Hashtbl.reset t.arrays;
  Array.fill t.ints 0 max_free_ints [||];
  t.bitset_hits <- 0;
  t.bitset_misses <- 0;
  t.array_hits <- 0;
  t.array_misses <- 0
