#!/bin/sh
# Checks that a CLI reference doc documents exactly the options the paired
# binary's --help reports — both directions: an undocumented flag fails,
# and so does a documented flag the binary no longer accepts.
#
#   check_cli_docs.sh <path-to-binary> <path-to-reference.md> [scope]
#
# With no scope, the whole doc is scanned. With a scope, only the region
# between `<!-- cli:scope -->` and `<!-- /cli:scope -->` markers counts —
# that is how several tools share one docs/CLI.md without their flag sets
# bleeding into each other's checks.
#
# Registered as the `cli_docs_in_sync` (roccc-cc), `ccd_cli_docs_in_sync`
# (roccc-ccd), `client_cli_docs_in_sync` (roccc-client),
# `verify_cli_docs_in_sync` (roccc-verify) — all scoped regions of
# docs/CLI.md — and `explore_cli_docs_in_sync` (roccc-explore /
# docs/EXPLORE.md, unscoped) ctests (tests/CMakeLists.txt), and run by the
# docs CI job.
set -eu

RCC="$1"
DOC="$2"
SCOPE="${3:-}"

[ -x "$RCC" ] || { echo "error: '$RCC' is not executable" >&2; exit 1; }
[ -f "$DOC" ] || { echo "error: '$DOC' not found" >&2; exit 1; }

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Flags as --help lists them: the option table prints one per line, indented
# two spaces.
"$RCC" --help \
  | sed -n 's/^  \(--\{0,1\}[a-z][a-z0-9-]*\).*/\1/p' \
  | sort -u > "$tmpdir/help_flags"

# The doc text to scan: the whole file, or just the scoped marker region.
if [ -n "$SCOPE" ]; then
  sed -n "/<!-- cli:$SCOPE -->/,/<!-- \\/cli:$SCOPE -->/p" "$DOC" > "$tmpdir/doc_text"
  [ -s "$tmpdir/doc_text" ] || {
    echo "error: no <!-- cli:$SCOPE --> region in $DOC" >&2; exit 1;
  }
else
  cp "$DOC" "$tmpdir/doc_text"
fi

# Flags as documented: every `--flag` (or `-o`) that starts a backticked
# span in the reference table/headings.
grep -oE '`--?[a-z][a-z0-9-]*' "$tmpdir/doc_text" \
  | sed 's/^`//' \
  | sort -u > "$tmpdir/doc_flags"

if ! diff -u "$tmpdir/help_flags" "$tmpdir/doc_flags" > "$tmpdir/diff"; then
  echo "$DOC${SCOPE:+ (scope $SCOPE)} is out of sync with $(basename "$RCC") --help:" >&2
  echo "(lines prefixed '-' are in --help but undocumented;" >&2
  echo " lines prefixed '+' are documented but not in --help)" >&2
  cat "$tmpdir/diff" >&2
  exit 1
fi

echo "$DOC${SCOPE:+ (scope $SCOPE)} and $(basename "$RCC") --help agree ($(wc -l < "$tmpdir/help_flags") flags)"
