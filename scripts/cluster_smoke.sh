#!/usr/bin/env bash
# Cluster smoke test for the packed wire format and the UDP transport
# (docs/wire-format.md).
#
# Stage 1 — loopback-wire audit: one dupsim run in transport=wire mode,
# where a single process owns every node but ships each overlay frame
# through a real loopback UDP socket. The JSONL trace writer observes the
# run and the full audit::InvariantChecker executes at the end over
# protocol state built entirely from decoded bytes; tools/dupwire then
# re-validates the binary frame log offline.
#
# Stage 2 — three dupd ranks: a real multi-process cluster on localhost.
# Every rank round-trip-verifies its frames in flight and must report zero
# rejected frames, the ranks together must receive every frame they
# shipped, and each must coalesce its frames into 1..frames datagrams;
# dupwire cross-checks all three frame logs together (received ⊆
# transmitted, ack pairing, route shape).
#
# Usage: scripts/cluster_smoke.sh [BUILD_DIR]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
DUPSIM="$BUILD_DIR/tools/dupsim"
DUPD="$BUILD_DIR/tools/dupd"
DUPWIRE="$BUILD_DIR/tools/dupwire"
for bin in "$DUPSIM" "$DUPD" "$DUPWIRE"; do
  [[ -x "$bin" ]] || { echo "cluster_smoke: missing binary $bin" >&2; exit 1; }
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/dup_cluster_smoke.XXXXXX")"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Ports out of the ephemeral default range, offset by PID so parallel CI
# jobs on one host do not collide.
BASE_PORT=$(( 20000 + ($$ % 20000) ))

echo "== stage 1: loopback-wire audit (dupsim transport=wire) =="
"$DUPSIM" transport=wire scheme=dup nodes=64 lambda=5 c=2 ttl=60 lead=5 \
  hoplat=0.01 warmup=0 measure=30 retry_max=3 wire_pace=400 \
  wire_port=$BASE_PORT wire_frame_log="$WORK/loopback.frames" \
  trace_out="$WORK/loopback.trace.jsonl"
[[ -s "$WORK/loopback.trace.jsonl" ]] || {
  echo "cluster_smoke: loopback run produced no trace" >&2; exit 1; }
"$DUPWIRE" "$WORK/loopback.frames"

echo "== stage 2: 3-rank dupd cluster over UDP =="
P0=$((BASE_PORT + 1)); P1=$((BASE_PORT + 2)); P2=$((BASE_PORT + 3))
PEERS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2"
COMMON=(peers="$PEERS" scheme=dup nodes=64 lambda=5 c=2 ttl=60 lead=5 \
        hoplat=0.01 warmup=0 measure=30 pace=200 seed=42)
for rank in 0 1 2; do
  "$DUPD" rank=$rank "${COMMON[@]}" \
    frame_log="$WORK/rank$rank.frames" \
    stats_json="$WORK/rank$rank.stats.json" \
    > "$WORK/rank$rank.log" 2>&1 &
  PIDS+=($!)
done
FAIL=0
for i in 0 1 2; do
  if ! wait "${PIDS[$i]}"; then
    echo "cluster_smoke: rank $i failed:" >&2
    cat "$WORK/rank$i.log" >&2
    FAIL=1
  fi
done
PIDS=()
[[ $FAIL -eq 0 ]] || exit 1
cat "$WORK"/rank*.log

# Each rank already aborts on a rejected frame; double-check the recorded
# counters. Coalescing must neither lose nor duplicate a frame: every frame
# shipped arrived at some rank, and each rank sent at least one datagram
# and no more datagrams than frames.
python3 - "$WORK"/rank0.stats.json "$WORK"/rank1.stats.json \
    "$WORK"/rank2.stats.json <<'PY'
import json
import sys

stats = []
for path in sys.argv[1:]:
    with open(path) as f:
        stats.append(json.load(f))
for s in stats:
    rank, frames, datagrams = (s["rank"], s["frames_shipped"],
                               s["datagrams_shipped"])
    if s["frames_rejected"] != 0:
        sys.exit(f"cluster_smoke: rank {rank} reported rejected frames")
    if not 0 < datagrams <= frames:
        sys.exit(f"cluster_smoke: rank {rank} sent {datagrams} datagrams "
                 f"for {frames} frames")
shipped = sum(s["frames_shipped"] for s in stats)
received = sum(s["frames_received"] for s in stats)
if shipped != received:
    sys.exit(f"cluster_smoke: {shipped} frames shipped, {received} received")
PY

"$DUPWIRE" "$WORK"/rank0.frames "$WORK"/rank1.frames "$WORK"/rank2.frames

echo "cluster_smoke: PASS"
