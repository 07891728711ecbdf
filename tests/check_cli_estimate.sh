#!/bin/sh
# Checks that roccc-cc and roccc-explore price one design alike. For a
# 12-bit multiply kernel under each multiplier style, the slices and MULT18
# count on roccc-cc's synthesis-estimate line and the fmax in its
# --stats-json timing block must equal roccc-explore's metrics for the same
# point.
#
#   check_cli_estimate.sh <roccc-cc> <roccc-explore> <python3>
#
# Registered as the `cli_estimate_matches_explore` ctest.
set -u

RCC="$1"
EXPLORE="$2"
PY="$3"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cat > "$tmpdir/mac.c" <<'KERNEL'
void mac(const int12 A[64], const int12 B[64], int32 C[64]) {
  int i;
  for (i = 0; i < 64; i++) {
    C[i] = A[i] * B[i];
  }
}
KERNEL
printf 'kernel mac %s\nmult-style lut mult18\n' "$tmpdir/mac.c" > "$tmpdir/mac.sweep"
"$EXPLORE" "$tmpdir/mac.sweep" --no-cycles --json "$tmpdir/sweep.json" > "$tmpdir/explore.out" 2>&1 || {
  echo "FAIL: roccc-explore exited $?" >&2
  cat "$tmpdir/explore.out" >&2
  exit 1
}
for style in lut mult18; do
  "$RCC" "$tmpdir/mac.c" --mult-style "$style" -o "$tmpdir/$style.vhd" \
    --stats-json "$tmpdir/$style.json" > "$tmpdir/$style.out" 2>&1 || {
    echo "FAIL: roccc-cc --mult-style $style exited $?" >&2
    cat "$tmpdir/$style.out" >&2
    exit 1
  }
done

"$PY" - "$tmpdir" <<'CHECK'
import json, re, sys

tmp = sys.argv[1]
sweep = json.load(open(f"{tmp}/sweep.json"))
failures = 0
for style in ("lut", "mult18"):
    point = next(r for r in sweep["results"] if r["config"]["multStyle"] == style)
    m = point["metrics"]
    line = next(l for l in open(f"{tmp}/{style}.out") if l.startswith("synthesis estimate"))
    cc = {k: int(v) for k, v in re.findall(r"\b(slices|mult18)=(\d+)", line)}
    fmax = json.load(open(f"{tmp}/{style}.json"))["timing"]["fmaxMHz"]
    got = (cc["slices"], cc["mult18"], fmax)
    want = (m["slices"], m["mult18"], m["fmaxMHz"])
    if got != want:
        print(f"FAIL: --mult-style {style}: roccc-cc (slices, mult18, fmax) {got}, "
              f"roccc-explore {want}", file=sys.stderr)
        failures += 1
sys.exit(1 if failures else 0)
CHECK
[ $? -eq 0 ] || exit 1
echo "roccc-cc and roccc-explore price mac alike under both multiplier styles"
