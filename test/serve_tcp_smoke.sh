#!/usr/bin/env bash
# Scripted TCP session against `repro-cli serve --tcp 0`: start the server
# on an ephemeral port, speak the line protocol over /dev/tcp (tagged
# compile, inline, run, stats, bad request, input that is not a strict
# CFG), drive it with the loadgen, then stop it over stdin and require a
# clean exit. Run via the @serve-tcp-smoke dune alias.
set -u

CLI="$1"
FIXTURE="$2"
UNDEF="$3"
fail() { echo "serve-tcp-smoke: $1" >&2; exit 1; }

ctl=$(mktemp -u)
mkfifo "$ctl" || fail "cannot create control fifo"
out=$(mktemp)
cleanup() { rm -f "$ctl" "$out"; }
trap cleanup EXIT

"$CLI" serve --tcp 0 --jobs 2 --queue 64 --per-conn 16 <"$ctl" >"$out" 2>/dev/null &
srv=$!
exec 9>"$ctl" # hold the fifo open so the server's stdin stays live

port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^listening 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out")
  [ -n "$port" ] && break
  sleep 0.05
done
[ -n "$port" ] || fail "server never printed its listening address"

# One scripted session, pipelined, replies checked in order. t1 and t2
# are identical and in flight together on the server's two workers, so
# either may reach the cache first: exactly one of them is the miss and
# the other a hit (warm or collapsed onto the in-flight compile).
exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "cannot connect to port $port"
{
  printf '# scripted smoke session\n'
  printf 'compile --tag t1 %s\n' "$FIXTURE"
  printf 'compile --tag t2 %s\n' "$FIXTURE"
  printf 'inline --tag t3 func smoke(n) { return n + 1; }\n'
  printf 'run --args 3 --tag t4 %s\n' "$FIXTURE"
  printf 'stats --tag t5\n'
  printf 'frobnicate --tag t6\n'
  printf 'compile --tag t7 %s\n' "$UNDEF"
  printf 'run --args 3 --tag t8 %s\n' "$FIXTURE"
  printf 'quit\n'
} >&3

read -r r1 <&3; case "$r1" in
  "ok tag=t1 funcs=1 copies="*" hits=0 misses=1") m1=1 ;;
  "ok tag=t1 funcs=1 copies="*" hits=1 misses=0") m1=0 ;;
  *) fail "t1: $r1" ;;
esac
read -r r2 <&3; case "$r2" in
  "ok tag=t2 funcs=1 copies="*" hits=0 misses=1") m2=1 ;;
  "ok tag=t2 funcs=1 copies="*" hits=1 misses=0") m2=0 ;;
  *) fail "t2: $r2" ;;
esac
[ $((m1 + m2)) -eq 1 ] || fail "t1/t2: expected exactly one miss: $r1 / $r2"
read -r r3 <&3; case "$r3" in "ok tag=t3 funcs=1 "*) ;; *) fail "t3: $r3";; esac
read -r r4 <&3; case "$r4" in "ok tag=t4 ran ok=6") ;; *) fail "t4: $r4";; esac
read -r r5 <&3; case "$r5" in
  "ok tag=t5 stats served="*" res_p50_us="[0-9]*" res_p99_us="[0-9]*) ;;
  *) fail "t5: $r5" ;;
esac
read -r r6 <&3; case "$r6" in "err tag=t6 status=2 serve: unknown request 'frobnicate'"*) ;; *) fail "t6: $r6";; esac
read -r r7 <&3; case "$r7" in "err tag=t7 status=2 invalid input: undef/b0: "*) ;; *) fail "t7: $r7";; esac
read -r r8 <&3; case "$r8" in "ok tag=t8 ran ok=6") ;; *) fail "t8: $r8";; esac
read -r r9 <&3; [ "$r9" = "ok bye" ] || fail "quit: $r9"
exec 3<&- 3>&-

# Concurrent load through the public client.
"$CLI" loadgen --port "$port" --clients 20 --requests 5 --distinct 4 >/dev/null \
  || fail "loadgen reported errors"

# Graceful stop over stdin; the server must exit 0 on its own.
echo stop >&9
exec 9>&-
for _ in $(seq 1 100); do
  kill -0 "$srv" 2>/dev/null || break
  sleep 0.05
done
if kill -0 "$srv" 2>/dev/null; then
  kill -9 "$srv"
  fail "server did not exit after stop"
fi
wait "$srv"
status=$?
[ "$status" -eq 0 ] || fail "server exited with status $status"
echo "serve-tcp-smoke: ok (port $port)"
