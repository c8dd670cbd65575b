#!/usr/bin/env bash
# Counted lines of the workspace's library and binary code, per crate and
# in all. A file under crates/*/src counts up to its first `#[cfg(test)]`
# line; blank lines and `//` comment lines (doc comments included) do not
# count; crates/*/tests and everything outside crates/ do not count.
#
# Usage: scripts/counted-lines.sh [repo-root]   (default: this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for crate in "$root"/crates/*/; do
  [ -d "$crate/src" ] || continue
  n=$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*(\/\/.*)?$/ { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
