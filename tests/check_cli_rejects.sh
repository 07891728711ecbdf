#!/bin/sh
# Checks that every tool rejects malformed flag values as a usage error
# (exit 2) instead of compiling with a silent default: `atof("foo")` was 0,
# `atoi("3x")` was 3, and no sign or NaN check ran.
#
#   check_cli_rejects.sh <tool-dir> <kernel.c>
#
# Registered as the `cli_rejects_malformed_values` ctest.
set -u

BIN="$1"
KERNEL="$2"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
failures=0

# expect_usage TOOL ARGS...: TOOL ARGS must exit 2. `timeout` bounds a
# regression that accepts the value (roccc-ccd would start serving).
expect_usage() {
  tool="$1"
  shift
  timeout 20 "$BIN/$tool" "$@" > "$tmpdir/out" 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $tool $* exited $code, expected 2" >&2
    cat "$tmpdir/out" >&2
    failures=$((failures + 1))
  fi
}

out="$tmpdir/k.vhd"
for bad in foo nan inf 0 -1; do
  expect_usage roccc-cc --target-ns "$bad" -o "$out" "$KERNEL"
  expect_usage roccc-ccd --socket "$tmpdir/ccd.sock" --target-ns "$bad"
done
for bad in abc 0 -3 3x; do
  expect_usage roccc-cc --unroll "$bad" -o "$out" "$KERNEL"
  expect_usage roccc-cc "--unroll=$bad" -o "$out" "$KERNEL"
  expect_usage roccc-client --socket "$tmpdir/none.sock" --unroll "$bad" "$KERNEL"
done
expect_usage roccc-cc --width-mode portopcode -o "$out" "$KERNEL"
expect_usage roccc-cc --timing-model "$tmpdir/missing.tm" -o "$out" "$KERNEL"
# A timing-model field is one whole token and no token is left over; a
# `div` row names no primitive; a nonzero latency is refused, not ignored.
# Each error carries the line it is on.
for bad in 'add 8.5 1.1 0 8 0' 'add 8 1.1 0.5 8 0' 'clock-overhead-ns 0.8 garbage' \
    'clock-overhead-ns 2x' 'model slow extra' 'add 32 1.1 0 8 0 nan 0' 'div 8 4.0 0 80 0' \
    'mul-lut 8 4.0 2 80 0'; do
  printf '# malformed on line 2\n%s\n' "$bad" > "$tmpdir/bad.tm"
  expect_usage roccc-cc --timing-model "$tmpdir/bad.tm" -o "$out" "$KERNEL"
  grep -q 'line 2: ' "$tmpdir/out" || {
    echo "FAIL: timing-model line '$bad' gave no line-numbered error" >&2
    cat "$tmpdir/out" >&2
    failures=$((failures + 1))
  }
done
expect_usage roccc-ccd --socket "$tmpdir/ccd.sock" --timeout-ms -5
expect_usage roccc-client --socket "$tmpdir/none.sock" --target-ns nan "$KERNEL"
# A seed is decimal or 0x hex: no sign, no blanks, no overflow.
for bad in abc -1 " 7" 99999999999999999999 0x; do
  expect_usage roccc-verify --seed "$bad" "$KERNEL"
  expect_usage roccc-explore --seed "$bad" --kernel "k=$KERNEL"
  expect_usage roccc-cc --testbench --tb-seed "$bad" -o "$out" "$KERNEL"
done
expect_usage roccc-verify --jobs abc "$KERNEL"
expect_usage roccc-verify --unroll 1,0 "$KERNEL"
expect_usage roccc-explore --timeout-ms 5s --kernel "k=$KERNEL"
# A sweep axis takes what its option row takes (plus target-ns 0).
for bad in foo nan inf -1; do
  expect_usage roccc-explore --target-ns "1,$bad" --kernel "k=$KERNEL"
done
expect_usage roccc-explore --unroll 0 --kernel "k=$KERNEL"
expect_usage roccc-cc --no-infer -o "$out" "$KERNEL"

[ ! -e "$out" ] || { echo "FAIL: a rejected command wrote $out" >&2; failures=$((failures + 1)); }
[ "$failures" -eq 0 ] || exit 1
echo "every malformed value was a usage error"
