#!/bin/sh
# Checks that roccc-cc's batch mode (more than one input) rejects every flag
# that names a single output or report as a usage error (exit 2) and writes
# nothing. Batch mode writes one <input>.vhd per input and nothing else, so
# these flags were once accepted and silently dropped.
#
#   check_cli_batch_flags.sh <roccc-cc> <kernel.c>
#
# Registered as the `cli_batch_rejects_single_input_flags` ctest.
set -u

RCC="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cp "$2" "$tmpdir/a.c"
cp "$2" "$tmpdir/b.c"
failures=0

# expect_usage ARGS...: roccc-cc ARGS a.c b.c must exit 2.
expect_usage() {
  "$RCC" "$@" "$tmpdir/a.c" "$tmpdir/b.c" > "$tmpdir/out" 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: roccc-cc $* a.c b.c exited $code, expected 2" >&2
    cat "$tmpdir/out" >&2
    failures=$((failures + 1))
  fi
}

expect_usage -o "$tmpdir/x.vhd"
expect_usage --verilog "$tmpdir/x.v"
expect_usage --json "$tmpdir/x.json"
expect_usage --testbench
expect_usage --cosim
expect_usage --vcd "$tmpdir/x.vcd"
expect_usage --dump-datapath
expect_usage --dump-mir

for f in a.vhd b.vhd x.vhd x.v x.json x.vcd a_tb.vhd; do
  [ ! -e "$tmpdir/$f" ] || { echo "FAIL: a rejected batch wrote $f" >&2; failures=$((failures + 1)); }
done

# The same inputs without those flags still compile as a batch.
"$RCC" --quiet "$tmpdir/a.c" "$tmpdir/b.c" > "$tmpdir/out" 2>&1 || {
  echo "FAIL: plain batch exited $?" >&2
  cat "$tmpdir/out" >&2
  failures=$((failures + 1))
}
[ -s "$tmpdir/a.vhd" ] && [ -s "$tmpdir/b.vhd" ] || {
  echo "FAIL: plain batch wrote no a.vhd/b.vhd" >&2
  failures=$((failures + 1))
}

[ "$failures" -eq 0 ] || exit 1
echo "batch mode rejected every single-input flag"
