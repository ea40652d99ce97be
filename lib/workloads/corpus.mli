(** Deterministic corpora at the 10⁵–10⁶-function scale.

    A corpus is a pure function of its {!spec}: item [i] is derived from
    [(seed, i)] alone (a splitmix-style mixer, no sequential generator
    state), so generation can be restarted, sampled at any index, or
    parallelized and always agree with itself. The mix interleaves four
    families by weight:

    - {b kernels} — the named suite kernels, repeated verbatim: the
      warm-cache component (identical content, identical cache key);
    - {b generated} — all-distinct seeded structured programs;
    - {b adversarial} — {!Generator.adversarial} CFG families at
      compile-friendly sizes;
    - {b near_dups} — the cache-hostile component: structurally identical
      to one of eight base functions but renamed per index, so every one
      prints differently and gets a fresh content address while costing a
      full compile.

    On disk a corpus is one line-delimited text file — one escaped
    printed function per line, see {!encode_line} — plus a key-value
    manifest ([<path>.manifest]) recording seed, totals and family
    counts, so corpora are reproducible from ~100 bytes of manifest
    without being checked in. Both the writer and the reader stream:
    neither ever holds more than one function in memory. *)

type mix = {
  kernels : int;
  generated : int;
  adversarial : int;
  near_dups : int;
}
(** Relative weights (any non-negative ints summing > 0). *)

val default_mix : mix
(** [{ kernels = 2; generated = 5; adversarial = 1; near_dups = 2 }]. *)

type spec = {
  seed : int;
  total : int;  (** number of functions in the corpus *)
  mix : mix;
}

type family = Kernel | Generated | Adversarial | Near_dup

val family_name : family -> string
(** The manifest label: ["kernels"], ["generated"], ["adversarial"],
    ["near_dups"]. *)

val family : spec -> int -> family
(** Which family item [index] belongs to — cheap (no function is built),
    used for counting and labeling. Raises [Invalid_argument] if the mix
    weights sum to 0. *)

val family_counts : spec -> (string * int) list
(** Exact per-family item counts for the whole corpus, in declaration
    order — the manifest's [family] lines. *)

val item : spec -> int -> Ir.func
(** Build item [index] (in [0, total)). Deterministic in [(seed, index)];
    validates cleanly by construction. Raises [Invalid_argument] out of
    range. *)

val producer : spec -> unit -> Ir.func option
(** The corpus as a streaming producer: yields items [0 .. total - 1]
    then [None] — feed it straight to {!Engine.Stream.run} or
    [Driver.Pipeline.stream_passes_in]. *)

(** {1 On-disk form} *)

val encode_line : string -> string
(** Escape a printed function onto one line (['\\'] → ["\\\\"], newline →
    ["\\n"]; the printer emits no other control characters). *)

val decode_line : string -> string
(** Inverse of {!encode_line}. *)

val write : string -> spec -> int
(** [write path spec] streams the whole corpus to [path] (one encoded
    function per line) and its manifest to [path ^ ".manifest"]; returns
    the number of functions written. *)

val write_funcs : string -> (unit -> Ir.func option) -> int
(** Stream an arbitrary producer to [path] in corpus format (no manifest
    — the caller may not know a spec); returns the count written. *)

val read_funcs : string -> unit -> Ir.func option
(** Stream functions back from a corpus file, one per call, closing the
    file at the final [None]. A line that does not parse raises
    {!Ir.Parse.Error} with that line's number in the file, and closes the
    file too: later calls return [None]. *)

(** {1 Manifest} *)

type manifest = {
  spec : spec;
  count : int;  (** functions actually written *)
}

val manifest_path : string -> string
(** [path ^ ".manifest"]. *)

val manifest_to_string : manifest -> string
(** The versioned key-value text form. *)

val manifest_of_string : string -> manifest option
(** Parse {!manifest_to_string} output; [None] on malformed or
    version-mismatched input (never raises). *)

val read_manifest : string -> manifest option
(** Read and parse the manifest sitting next to corpus file [path];
    [None] if absent or malformed. *)
