(* Deterministic corpora at the 10⁵–10⁶-function scale. A corpus is a
   pure function of its spec: item [i] is derived from [(seed, i)] alone
   through a splitmix-style mixer, with no sequential generator state, so
   the producer can be restarted, sampled, or parallelized and always
   agree with itself. On disk a corpus is one line-delimited text file
   (one escaped printed function per line) plus a small key-value
   manifest, so million-function corpora are reproducible from ~100
   bytes of manifest without ever being checked in. *)

let format_version = "repro-corpus/1"

(* ------------------------------------------------------------------ *)
(* Per-index randomness: the splitmix64 finalizer over (seed, index).
   Every item derives a handful of independent choices by re-mixing with
   distinct salts.                                                     *)
(* ------------------------------------------------------------------ *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let derive ~seed ~index ~salt =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9e3779b97f4a7c15L)
         (Int64.add (Int64.mul (Int64.of_int index) 0xd1b54a32d192ed03L)
            (Int64.of_int salt)))
  in
  (* A non-negative int: plenty of bits for modulus picks. *)
  Int64.to_int (Int64.shift_right_logical z 2) land max_int

(* ------------------------------------------------------------------ *)
(* Specs                                                               *)
(* ------------------------------------------------------------------ *)

type mix = {
  kernels : int;
  generated : int;
  adversarial : int;
  near_dups : int;
}

let default_mix = { kernels = 2; generated = 5; adversarial = 1; near_dups = 2 }

type spec = {
  seed : int;
  total : int;
  mix : mix;
}

let mix_weight m = m.kernels + m.generated + m.adversarial + m.near_dups

type family = Kernel | Generated | Adversarial | Near_dup

let family_name = function
  | Kernel -> "kernels"
  | Generated -> "generated"
  | Adversarial -> "adversarial"
  | Near_dup -> "near_dups"

let family spec index =
  let w = mix_weight spec.mix in
  if w <= 0 then invalid_arg "Corpus.family: mix weights sum to 0";
  let r = derive ~seed:spec.seed ~index ~salt:1 mod w in
  if r < spec.mix.kernels then Kernel
  else if r < spec.mix.kernels + spec.mix.generated then Generated
  else if r < spec.mix.kernels + spec.mix.generated + spec.mix.adversarial
  then Adversarial
  else Near_dup

let family_counts spec =
  let k = ref 0 and g = ref 0 and a = ref 0 and d = ref 0 in
  for i = 0 to spec.total - 1 do
    match family spec i with
    | Kernel -> incr k
    | Generated -> incr g
    | Adversarial -> incr a
    | Near_dup -> incr d
  done;
  [
    (family_name Kernel, !k);
    (family_name Generated, !g);
    (family_name Adversarial, !a);
    (family_name Near_dup, !d);
  ]

(* ------------------------------------------------------------------ *)
(* Item derivation                                                     *)
(* ------------------------------------------------------------------ *)

(* Kernels repeat verbatim across the corpus — they are the warm-cache
   component of the mix (identical content, identical key). *)
let kernel_item spec index =
  let ks = Suite.kernels () in
  let pick = derive ~seed:spec.seed ~index ~salt:2 mod List.length ks in
  (List.nth ks pick).Suite.func

(* Generated functions are all distinct: the generator seed folds in the
   item's own derived randomness. *)
let generated_item spec index =
  let r = derive ~seed:spec.seed ~index ~salt:3 in
  Generator.generate_ir
    {
      Generator.seed = r;
      size = 10 + (derive ~seed:spec.seed ~index ~salt:4 mod 31);
      max_depth = 3;
      num_vars = 8;
    }

(* Adversarial CFG families at compile-friendly sizes (these are compiled,
   not interpreted, so Deep_loop_nest's 2^depth trip count is irrelevant —
   but its depth still bounds compile cost). *)
let adversarial_item spec index =
  let r = derive ~seed:spec.seed ~index ~salt:5 in
  match r mod 4 with
  | 0 -> Generator.adversarial Generator.Comb
           ~size:(8 + (derive ~seed:spec.seed ~index ~salt:6 mod 57))
  | 1 -> Generator.adversarial Generator.Skewed_ladder
           ~size:(8 + (derive ~seed:spec.seed ~index ~salt:6 mod 57))
  | 2 -> Generator.adversarial Generator.Dense_diamonds
           ~size:(4 + (derive ~seed:spec.seed ~index ~salt:6 mod 29))
  | _ -> Generator.adversarial Generator.Deep_loop_nest
           ~size:(2 + (derive ~seed:spec.seed ~index ~salt:6 mod 5))

(* Near-duplicates are the cache-hostile component: structurally identical
   to one of a small pool of base functions but renamed per index, so
   every one prints differently — a distinct content address the cache
   can do nothing with, while costing as much to compile as its base. *)
let near_dup_item spec index =
  let base_pick = derive ~seed:spec.seed ~index ~salt:7 mod 8 in
  let base =
    Generator.generate_ir
      {
        Generator.seed = spec.seed + 7919 + base_pick;
        size = 30;
        max_depth = 3;
        num_vars = 8;
      }
  in
  { base with Ir.name = Printf.sprintf "%s_dup%d" base.Ir.name index }

let item spec index =
  if index < 0 || index >= spec.total then invalid_arg "Corpus.item";
  match family spec index with
  | Kernel -> kernel_item spec index
  | Generated -> generated_item spec index
  | Adversarial -> adversarial_item spec index
  | Near_dup -> near_dup_item spec index

let producer spec =
  let next = ref 0 in
  fun () ->
    if !next >= spec.total then None
    else begin
      let i = !next in
      incr next;
      Some (item spec i)
    end

(* ------------------------------------------------------------------ *)
(* Line codec: one printed function per line, '\' and newline escaped.
   The printer never emits other control characters, so two escapes
   suffice and the encoding is trivially invertible.                   *)
(* ------------------------------------------------------------------ *)

let encode_line s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let decode_line s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | c -> Buffer.add_char b c);
       i := !i + 2
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Manifest: a tiny key-value sidecar recording how to regenerate (and
   how to trust) a corpus file.                                        *)
(* ------------------------------------------------------------------ *)

type manifest = {
  spec : spec;
  count : int;  (* functions actually written *)
}

let manifest_path path = path ^ ".manifest"

let manifest_to_string m =
  String.concat "\n"
    ([
       format_version;
       Printf.sprintf "seed %d" m.spec.seed;
       Printf.sprintf "total %d" m.spec.total;
       Printf.sprintf "mix kernels=%d generated=%d adversarial=%d \
                       near_dups=%d"
         m.spec.mix.kernels m.spec.mix.generated m.spec.mix.adversarial
         m.spec.mix.near_dups;
       Printf.sprintf "count %d" m.count;
     ]
    @ List.map
        (fun (name, n) -> Printf.sprintf "family %s %d" name n)
        (family_counts m.spec))
  ^ "\n"

let manifest_of_string text =
  let lines = String.split_on_char '\n' text in
  let field name =
    List.find_map
      (fun l ->
        let prefix = name ^ " " in
        if String.length l > String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then
          Some
            (String.sub l (String.length prefix)
               (String.length l - String.length prefix))
        else None)
      lines
  in
  match lines with
  | v :: _ when v = format_version -> (
    try
      let geti name = int_of_string (Option.get (field name)) in
      let mix =
        Scanf.sscanf (Option.get (field "mix"))
          "kernels=%d generated=%d adversarial=%d near_dups=%d"
          (fun kernels generated adversarial near_dups ->
            { kernels; generated; adversarial; near_dups })
      in
      Some
        {
          spec = { seed = geti "seed"; total = geti "total"; mix };
          count = geti "count";
        }
    with _ -> None)
  | _ -> None

let read_manifest path =
  match open_in_bin (manifest_path path) with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        manifest_of_string (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* File writer/reader: both stream — neither ever holds more than one
   function in memory.                                                 *)
(* ------------------------------------------------------------------ *)

let write_funcs path produce =
  let oc = open_out_bin path in
  let count = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let rec loop () =
        match produce () with
        | None -> ()
        | Some f ->
          output_string oc (encode_line (Ir.Printer.func_to_string f));
          output_char oc '\n';
          incr count;
          loop ()
      in
      loop ());
  !count

let write path spec =
  let count = write_funcs path (producer spec) in
  let oc = open_out_bin (manifest_path path) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (manifest_to_string { spec; count }));
  count

let read_funcs path =
  let ic = open_in_bin path in
  let closed = ref false in
  let line = ref 0 in
  fun () ->
    if !closed then None
    else
      match In_channel.input_line ic with
      | None ->
        closed := true;
        close_in ic;
        None
      | Some text -> (
        incr line;
        (* One function per line: an error's line is the file's. *)
        try Some (Ir.Parse.func_of_string (decode_line text))
        with Ir.Parse.Error (msg, _) ->
          closed := true;
          close_in_noerr ic;
          raise (Ir.Parse.Error (msg, !line)))
