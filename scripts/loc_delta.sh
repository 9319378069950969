#!/usr/bin/env bash
# Net change in lines of code since a base revision, per top-level
# directory, from `git diff --numstat` (the ROADMAP asks every change to
# report it). Compares the base against the working tree, so run it on a
# clean checkout or after `git add -N` for new files; binary files are
# skipped.
#
# Usage: scripts/loc_delta.sh <base-rev>
#
# Prints one row per directory (src tools bench examples tests docs), one
# for everything else and a total:
#
#   dir        added  removed      net
#   src          120      310     -190
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
base="$1"
git rev-parse --verify --quiet "$base^{commit}" > /dev/null ||
  { echo "loc_delta: unknown revision '$base'" >&2; exit 2; }

git diff --numstat --no-renames "$base" -- | awk '
  BEGIN {
    n = split("src tools bench examples tests docs", dirs, " ")
    for (i = 1; i <= n; i++) known[dirs[i]] = 1
  }
  $1 == "-" { next }  # Binary file.
  {
    top = $3
    sub(/\/.*/, "", top)
    if (!(top in known) || $3 !~ /\//) top = "other"
    added[top] += $1; removed[top] += $2
    added["total"] += $1; removed["total"] += $2
  }
  END {
    printf "%-10s %8s %8s %8s\n", "dir", "added", "removed", "net"
    dirs[n + 1] = "other"; dirs[n + 2] = "total"
    for (i = 1; i <= n + 2; i++) {
      d = dirs[i]
      net = added[d] - removed[d]
      printf "%-10s %8d %8d %+8d\n", d, added[d], removed[d], net
    }
  }'
