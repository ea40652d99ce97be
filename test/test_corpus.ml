(* Workloads.Corpus: deterministic derivation, the line-delimited on-disk
   format, and the manifest — a corpus must be a pure function of its spec
   and must survive a disk round-trip byte-for-byte. *)

open Helpers
module Corpus = Workloads.Corpus

let spec ?(seed = 42) ?(mix = Corpus.default_mix) total =
  { Corpus.seed; total; mix }

let fresh_tmp_file =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-corpus-test-%d-%d" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Corpus.manifest_path path ]

let print_item s i = Ir.Printer.func_to_string (Corpus.item s i)

(* ------------------------------------------------------------------ *)
(* Derivation                                                         *)
(* ------------------------------------------------------------------ *)

let test_item_deterministic () =
  let s = spec 60 in
  for i = 0 to 59 do
    check Alcotest.string "same (seed, index) -> same function"
      (print_item s i) (print_item (spec 60) i)
  done;
  (* Items are index-addressed, not sequentially generated: a larger
     corpus with the same seed starts with the same items. *)
  let big = spec 200 in
  for i = 0 to 59 do
    check Alcotest.string "prefix-stable across totals" (print_item s i)
      (print_item big i)
  done;
  checkb "different seeds diverge" true
    (print_item (spec ~seed:1 60) 7 <> print_item (spec ~seed:2 60) 7)

let test_items_validate () =
  let s = spec 80 in
  for i = 0 to 79 do
    match Ir.Validate.run (Corpus.item s i) with
    | [] -> ()
    | e :: _ ->
      Alcotest.failf "item %d fails validation: %a" i Ir.Validate.pp_error e
  done

let test_family_counts () =
  let s = spec 173 in
  let counts = Corpus.family_counts s in
  checki "counts cover the corpus" 173
    (List.fold_left (fun a (_, n) -> a + n) 0 counts);
  (* The closed-form counts must agree with a brute-force tally. *)
  let tally = Hashtbl.create 4 in
  for i = 0 to 172 do
    let k = Corpus.family_name (Corpus.family s i) in
    Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
  done;
  List.iter
    (fun (name, n) ->
      checki (name ^ " count matches tally")
        (Option.value ~default:0 (Hashtbl.find_opt tally name))
        n)
    counts;
  (* A zero weight really excludes the family. *)
  let none =
    spec ~mix:{ Corpus.default_mix with Corpus.near_dups = 0 } 100
  in
  checki "zero weight -> zero items" 0
    (List.assoc "near_dups" (Corpus.family_counts none))

(* ------------------------------------------------------------------ *)
(* Line codec + disk round-trip                                       *)
(* ------------------------------------------------------------------ *)

let test_line_codec () =
  let cases =
    [ ""; "plain"; "a\nb"; "back\\slash"; "\\n"; "a\\\nb\n"; "\n\n\\\\" ]
  in
  List.iter
    (fun s ->
      let e = Corpus.encode_line s in
      checkb "encoded form is one line" false (String.contains e '\n');
      check Alcotest.string "decode inverts encode" s (Corpus.decode_line e))
    cases

let test_write_read_roundtrip () =
  let s = spec 40 in
  let path = fresh_tmp_file () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      checki "write reports the corpus size" 40 (Corpus.write path s);
      let next = Corpus.read_funcs path in
      let i = ref 0 in
      let rec loop () =
        match next () with
        | Some f ->
          check Alcotest.string
            (Printf.sprintf "item %d round-trips" !i)
            (print_item s !i)
            (Ir.Printer.func_to_string f);
          incr i;
          loop ()
        | None -> ()
      in
      loop ();
      checki "reader yields the whole corpus" 40 !i)

let test_manifest_roundtrip () =
  let m =
    {
      Corpus.spec = spec ~seed:97 12345;
      count = 12345;
    }
  in
  (match Corpus.manifest_of_string (Corpus.manifest_to_string m) with
  | None -> Alcotest.fail "manifest text form does not parse back"
  | Some m' -> checkb "manifest round-trips" true (m = m'));
  checkb "garbage rejected" true (Corpus.manifest_of_string "nonsense" = None);
  checkb "wrong version rejected" true
    (Corpus.manifest_of_string "repro-corpus/999\nseed 1\n" = None);
  let path = fresh_tmp_file () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let s = spec 25 in
      ignore (Corpus.write path s);
      match Corpus.read_manifest path with
      | None -> Alcotest.fail "written manifest must read back"
      | Some m ->
        checkb "manifest spec matches" true (m.Corpus.spec = s);
        checki "manifest count matches" 25 m.Corpus.count)

(* Ingestion = generation: compiling a corpus streamed back from disk must
   give exactly the reports of compiling the same items in memory. The
   in-memory side goes through one print/parse cycle too — reparsing
   renumbers internal value ids (and with them fresh-temp names in the
   output), so this pins down the file layer (escaping, line splitting,
   buffering), not parser id assignment. *)
let test_disk_compile_equals_generated () =
  let s = spec 30 in
  let path = fresh_tmp_file () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      ignore (Corpus.write path s);
      let passes = new_pipeline in
      let compile producer =
        let out = ref [] in
        Engine.Pool.with_pool ~jobs:2 (fun pool ->
            Driver.Pipeline.stream_passes_in pool ~producer
              ~consumer:(fun _ (r : Driver.Pipeline.report) ->
                out := Ir.Printer.func_to_string r.output :: !out)
              passes);
        List.rev !out
      in
      let reparsing =
        let next = Corpus.producer s in
        fun () ->
          Option.map
            (fun f -> Ir.Parse.func_of_string (Ir.Printer.func_to_string f))
            (next ())
      in
      check
        Alcotest.(list string)
        "disk and generated corpora compile identically"
        (compile reparsing)
        (compile (Corpus.read_funcs path)))

let suite =
  [
    Alcotest.test_case "item: deterministic + prefix-stable" `Quick
      test_item_deterministic;
    Alcotest.test_case "item: every item validates" `Quick test_items_validate;
    Alcotest.test_case "family counts: exact" `Quick test_family_counts;
    Alcotest.test_case "line codec round-trips" `Quick test_line_codec;
    Alcotest.test_case "write/read round-trip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
    Alcotest.test_case "disk compile = generated compile" `Quick
      test_disk_compile_equals_generated;
  ]
