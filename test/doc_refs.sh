#!/usr/bin/env bash
# The docs' references must stay true:
#  - every lib/, bin/, bench/, test/ or examples/ path they cite exists
#    (a cited X.exe counts as X.ml);
#  - every bench/main.exe target they cite is one the bench accepts;
#  - every `repro-cli WORD` (or `repro_cli.exe -- WORD`) they cite names
#    a subcommand;
#  - every `--flag` cited after `repro-cli SUB [SUB2]` on the same command
#    line is one that subcommand's `--help=plain` lists. A command line runs
#    to the next backtick, `|`, `&`, `;` or `#`, and a line ending in `\`
#    continues on the next.
# Usage, from the source root: doc_refs.sh BENCH_EXE CLI_EXE DOC...
# Run via @doc-refs (part of `dune runtest`).
set -u
set -f  # cited words are data, never globs

BENCH="$1"
CLI="$2"
shift 2
status=0
bad() { echo "doc-refs: $1" >&2; status=1; }

# The accepted names, as each program lists them when it refuses one.
targets=$("$BENCH" no-such-target 2>&1 >/dev/null \
  | sed -n 's/.*(targets: \(.*\))$/\1/p' | tr -d ',')
commands=$("$CLI" no-such-command 2>&1 >/dev/null \
  | sed -n 's/.*(commands: \(.*\))$/\1/p' | tr -d ',')
[ -n "$targets" ] || bad "cannot read the bench's target list"
[ -n "$commands" ] || bad "cannot read the CLI's subcommand list"
member() { case " $2 " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

for doc in "$@"; do
  while IFS=: read -r line ref; do
    ref=${ref#[!a-z]}
    while [ "${ref%.}" != "$ref" ]; do ref=${ref%.}; done
    case "$ref" in *.exe) ref="${ref%.exe}.ml" ;; esac
    [ -e "$ref" ] || bad "$doc:$line: cites $ref, which does not exist"
  done < <(grep -noE '(^|[^A-Za-z0-9_./-])(lib|bin|bench|test|examples)/[A-Za-z0-9_./-]*' "$doc")

  while IFS=: read -r line cite; do
    for word in ${cite#bench/main.exe}; do
      case "$word" in --|--fast|--json) continue ;; esac
      member "$word" "$targets" \
        || bad "$doc:$line: bench/main.exe has no target '$word'"
    done
  done < <(grep -noE 'bench/main\.exe( +[a-z0-9-]+)*' "$doc")

  while IFS=: read -r line cite; do
    word=${cite##* }
    member "$word" "$commands" \
      || bad "$doc:$line: repro-cli has no subcommand '$word'"
  done < <(grep -noE '(repro-cli|repro_cli\.exe --) [a-z][a-z-]*' "$doc")

  while IFS=: read -r line text; do
    while read -r cite; do
      cite=${cite#repro-cli }
      cite=${cite#repro_cli.exe -- }
      read -r sub sub2 _ <<<"$cite"
      # A second word that is not a subcommand is ignored by --help.
      help=$("$CLI" $sub $sub2 --help=plain 2>/dev/null) \
        || help=$("$CLI" $sub --help=plain 2>/dev/null)
      name=$(sed -n '/^SYNOPSIS/{n;s/^ *\(repro-cli[a-z -]*[a-z]\).*/\1/p;}' \
        <<<"$help")
      for flag in $(grep -oE -- '--[a-z][a-z0-9-]*' <<<"$cite"); do
        grep -qE -- "$flag([^a-z0-9-]|\$)" <<<"$help" \
          || bad "$doc:$line: ${name:-repro-cli $sub} has no option '$flag'"
      done
    done < <(grep -oE '(repro-cli|repro_cli\.exe --) [a-z][a-z-]*[^`|&;#]*' <<<"$text")
  done < <(awk '{ if (cont) buf = buf " " $0; else { buf = $0; start = NR } }
               cont = sub(/\\$/, "", buf) { next }
               { print start ":" buf }' "$doc")
done

[ "$status" -eq 0 ] && echo "doc-refs: ok"
exit "$status"
