#!/bin/sh
# Checks that roccc-ccd keeps serving after it runs out of file
# descriptors. The daemon runs under `ulimit -n 48`; 80 idle connections
# exhaust its descriptors, so accept() fails with EMFILE until they close.
# Afterwards `roccc-client --ping` must answer, a compile through the
# daemon must be byte-identical to roccc-cc's, and a drain must exit 0.
#
#   check_ccd_descriptor_exhaustion.sh <bindir> <kernel.c>
#
# <bindir> holds roccc-ccd, roccc-client and roccc-cc. Registered as the
# `ccd_survives_descriptor_exhaustion` ctest; python3 holds the idle
# connections.
set -u

BIN="$1"
tmpdir="$(mktemp -d)"
sock="$tmpdir/ccd.sock"
ccd_pid=""
cleanup() {
  [ -n "$ccd_pid" ] && kill "$ccd_pid" 2>/dev/null
  rm -rf "$tmpdir"
}
trap cleanup EXIT
cp "$2" "$tmpdir/k.c"

fail() {
  echo "FAIL: $*" >&2
  echo "--- daemon log:" >&2
  cat "$tmpdir/ccd.log" >&2
  exit 1
}

(ulimit -n 48 && exec "$BIN/roccc-ccd" --socket "$sock" --jobs 1) 2> "$tmpdir/ccd.log" &
ccd_pid=$!
i=0
while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do sleep 0.05; i=$((i + 1)); done
[ -S "$sock" ] || fail "the daemon never bound its socket"

# Open 80 connections without sending anything, hold them, then close
# them. A connect that finds the listen queue full or the socket gone is
# counted, not fatal: the checks below decide.
python3 - "$sock" <<'EOF' || fail "could not hold the idle connections"
import socket, sys, time
held, refused = [], 0
for _ in range(80):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.setblocking(False)
    try:
        s.connect(sys.argv[1])
    except BlockingIOError:
        pass
    except OSError:
        refused += 1
    held.append(s)
time.sleep(0.5)
for s in held:
    s.close()
print(f"held 80 idle connections ({refused} refused)")
EOF

kill -0 "$ccd_pid" 2>/dev/null || fail "the daemon exited under descriptor exhaustion"
"$BIN/roccc-client" --socket "$sock" --ping > "$tmpdir/ping.out" 2>&1 ||
  fail "ping after the idle connections closed: $(cat "$tmpdir/ping.out")"
"$BIN/roccc-client" --socket "$sock" -o "$tmpdir/daemon.vhd" "$tmpdir/k.c" ||
  fail "compile through the daemon"
"$BIN/roccc-cc" --quiet -o "$tmpdir/local.vhd" "$tmpdir/k.c" || fail "local compile"
cmp "$tmpdir/daemon.vhd" "$tmpdir/local.vhd" || fail "daemon VHDL differs from roccc-cc's"

"$BIN/roccc-client" --socket "$sock" --drain stop > /dev/null || fail "drain stop"
wait "$ccd_pid"
code=$?
ccd_pid=""
[ "$code" -eq 0 ] || fail "the daemon exited $code after drain stop, expected 0"
echo "roccc-ccd kept serving through descriptor exhaustion"
