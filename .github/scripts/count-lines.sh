#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines at a git revision, under one
# rule, so that every change reports its net line count the same way.
#
# Usage: count-lines.sh [REV]        (REV defaults to HEAD)
#
# The rule:
#   * files: every tracked `*.rs` file under `crates/`, `src/` and
#     `examples/` at REV; `tests/` directories are test code, and
#     `perfbench/` (the benchmark harness) and `shims/` (offline
#     stand-ins for external crates) are not counted;
#   * lines: every line of those files (code, comments, doc comments and
#     blank lines alike), except each `#[cfg(test)]` item: the attribute
#     line through the item's closing `}` in column 0.
#
# Prints one line: `non-test .rs lines at <rev>: <count>`. Compare two
# revisions by running it on each, e.g. `count-lines.sh HEAD~1`.
set -euo pipefail

rev=${1:-HEAD}
total=0
while IFS= read -r path; do
  case "$path" in
    */tests/*) continue ;;
  esac
  lines=$(git show "$rev:$path" | awk '
    /^#\[cfg\(test\)\]/ { skipping = 1; next }
    skipping && /^}/ { skipping = 0; next }
    !skipping { n++ }
    END { print n + 0 }')
  total=$((total + lines))
done < <(git ls-tree -r --name-only "$rev" -- crates src examples | grep '\.rs$')

echo "non-test .rs lines at $(git rev-parse --short "$rev"): $total"
