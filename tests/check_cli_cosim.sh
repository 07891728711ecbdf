#!/bin/sh
# Checks roccc-cc --cosim --vcd end to end on one kernel under each netlist
# engine: exit 0, the pinned MATCH line (cycles, iterations and BRAM reads
# of the Fig 2 system on the default verify stimulus), and a VCD file with
# its header.
#
#   check_cli_cosim.sh <roccc-cc> <sad4.c>
#
# Registered as the `cli_cosim` ctest.
set -u

RCC="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cp "$2" "$tmpdir/sad4.c"
failures=0

# expect_cosim ENGINE NAME: --cosim --vcd under --sim-engine ENGINE must
# match, name the engine NAME, and dump.
expect_cosim() {
  engine="$1"
  "$RCC" "$tmpdir/sad4.c" --cosim --sim-engine "$engine" --vcd "$tmpdir/$engine.vcd" \
    > "$tmpdir/out" 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: --cosim --sim-engine $engine exited $code, expected 0" >&2
    cat "$tmpdir/out" >&2
    failures=$((failures + 1))
    return
  fi
  line="cosimulation: MATCH (70 cycles, 64 iterations, 134 BRAM reads, $2 engine)"
  grep -qxF "$line" "$tmpdir/out" || {
    echo "FAIL: --sim-engine $engine did not print '$line'" >&2
    cat "$tmpdir/out" >&2
    failures=$((failures + 1))
  }
  grep -qF '$enddefinitions' "$tmpdir/$engine.vcd" 2>/dev/null || {
    echo "FAIL: --sim-engine $engine wrote no VCD header to $engine.vcd" >&2
    failures=$((failures + 1))
  }
}

expect_cosim fast fast
expect_cosim ref reference

[ "$failures" -eq 0 ] || exit 1
echo "roccc-cc --cosim matched and wrote a VCD on both netlist engines"
