#!/usr/bin/env bash
# Located diagnostics on hostile input: an .ir file whose block label
# overflows its function, and a corpus with one corrupted line read by
# both `corpus info --deep` and `corpus compile -i`. Each must exit 2 and
# print a FILE:LINE: diagnostic on stderr, never an uncaught exception
# (whose exit code, 2, would look the same). Then every `dump` stage of
# a clean program, and the output of `alloc` and `opt` on it, must read
# back as IR text and run to the source's result. Last, every command
# that compiles refuses input that is not a strict, phi-free CFG (a use
# of an undefined register; printed SSA) with exit 2 and a diagnostic
# naming the function and block. Run via @cli-exit-codes.
set -u

CLI="$1"
IR_FIXTURE="$2"
OK_MINI="$3"
UNDEF_IR="$4"
SSA_IR="$5"
fail() { echo "cli-diag-smoke: $1" >&2; exit 1; }

dir=$(mktemp -d)
cleanup() { rm -rf "$dir"; }
trap cleanup EXIT

# expect_diag PREFIX CMD...: CMD exits 2, its stderr starts a line with
# "repro-cli: PREFIX" and holds no "Fatal error".
expect_diag() {
  local prefix="$1"
  shift
  "$@" >/dev/null 2>"$dir/err"
  local code=$?
  [ "$code" -eq 2 ] || fail "$* exited $code, want 2: $(cat "$dir/err")"
  grep -q "^repro-cli: $prefix" "$dir/err" \
    || fail "$*: no '$prefix' diagnostic: $(cat "$dir/err")"
  if grep -q "Fatal error\|internal error" "$dir/err"; then
    fail "$*: uncaught exception: $(cat "$dir/err")"
  fi
}

expect_diag "$IR_FIXTURE:5: block label b100000000000 out of range" \
  "$CLI" dump "$IR_FIXTURE"

corpus="$dir/bad.corpus"
"$CLI" corpus gen --out "$corpus" --total 20 --seed 3 >/dev/null \
  || fail "corpus gen failed"
# Corrupt line 7's header: "func NAME(PARAMS) {" loses its ')'.
sed -i '7s/) {/ {/' "$corpus"
expect_diag "$corpus:7: malformed parameter list" \
  "$CLI" corpus info --deep "$corpus"
expect_diag "$corpus:7: malformed parameter list" \
  "$CLI" corpus compile -i "$corpus" --jobs 2

# A register count the allocator cannot meet is a spec error (exit 2),
# whether it comes from --registers or from a regalloc pass argument.
expect_diag "regalloc: '1' registers; the allocator needs at least 2" \
  "$CLI" opt --registers 1 "$OK_MINI"
expect_diag "regalloc: '1' registers; the allocator needs at least 2" \
  "$CLI" opt --passes construct:pruned,coalesce,regalloc:1 "$OK_MINI"

# A wrong --args count is an input error (exit 2), as the serve protocol
# answers it, not an internal error.
expect_diag "ok takes 1 argument(s), --args gave 2" \
  "$CLI" run --args 1,2 "$OK_MINI"
expect_diag "ok takes 1 argument(s), --args gave 2" \
  "$CLI" alloc -k 4 --args 1,2 "$OK_MINI"

# OK_MINI returns 6 on argument 7; so must each stage's dump, read back.
for stage in cfg ssa standard new briggs briggs-star; do
  "$CLI" dump --stage="$stage" "$OK_MINI" >"$dir/$stage.ir" \
    || fail "dump --stage=$stage failed"
  out=$("$CLI" run --args 7 "$dir/$stage.ir" 2>&1)
  code=$?
  [ "$code" -eq 0 ] || fail "run of the $stage dump exited $code: $out"
  case "$out" in
    *"returned 6;"*) ;;
    *) fail "run of the $stage dump: want 'returned 6', got: $out" ;;
  esac
done

# So must the output of `alloc` and `opt`: their statistics are comments.
"$CLI" alloc -k 4 "$OK_MINI" >"$dir/alloc.ir" || fail "alloc failed"
"$CLI" opt "$OK_MINI" >"$dir/opt.ir" || fail "opt failed"
for cmd in alloc opt; do
  out=$("$CLI" run --args 7 "$dir/$cmd.ir" 2>&1)
  code=$?
  [ "$code" -eq 0 ] || fail "run of the $cmd output exited $code: $out"
  case "$out" in
    *"returned 6;"*) ;;
    *) fail "run of the $cmd output: want 'returned 6', got: $out" ;;
  esac
done

# Input outside the pipelines' contract: refused at the door, never
# compiled into a wrong answer or an internal error.
undef_diag="invalid input: undef/b0: use of r9 before definite assignment"
ssa_diag="invalid input: fib/b1: phi-node in the input"
for fixture in "$UNDEF_IR" "$SSA_IR"; do
  if [ "$fixture" = "$UNDEF_IR" ]; then diag="$undef_diag"; else diag="$ssa_diag"; fi
  for stage in ssa standard new briggs briggs-star; do
    expect_diag "$diag" "$CLI" dump --stage="$stage" "$fixture"
  done
  expect_diag "$diag" "$CLI" run --args 1 --pipeline new "$fixture"
  expect_diag "$diag" "$CLI" run --args 1 --pipeline standard "$fixture"
  expect_diag "$diag" "$CLI" compare "$fixture"
  expect_diag "$diag" "$CLI" alloc -k 4 "$fixture"
  expect_diag "$diag" "$CLI" dot --ssa "$fixture"
  expect_diag "$diag" "$CLI" opt "$fixture"
  expect_diag "$diag" "$CLI" opt --check --jobs 2 "$fixture"
done

# The same function as one line of a corpus, compiled from the file.
corpus="$dir/undef.corpus"
"$CLI" corpus gen --out "$corpus" --total 20 --seed 3 >/dev/null \
  || fail "corpus gen failed"
sed -i '5s/.*/func undef(a) {\\nb0:\\n  r1 := add a, r9\\n  ret r1\\n}/' "$corpus"
expect_diag "$undef_diag" "$CLI" corpus compile -i "$corpus" --jobs 2

echo "cli-diag-smoke: ok"
