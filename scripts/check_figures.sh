#!/usr/bin/env bash
# Golden-output gate for the paper reproduction: reruns the 13 figure and
# ablation binaries and diffs each one's stdout against
# bench/golden/<binary>.txt. The tables must be byte-identical for every
# --threads value, so a change that moves any reproduced number (or makes
# a table depend on scheduling) fails here.
#
# Usage: scripts/check_figures.sh [build-dir] [threads]
#   build-dir  CMake build tree holding bench/ (default: build)
#   threads    worker threads passed as --threads (default: 1)
#
# Regenerate the goldens only for a change that means to move the tables:
#   for b in <binaries>; do build/bench/$b --no-json > bench/golden/$b.txt; done
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-build}"
THREADS="${2:-1}"
GOLDEN="$ROOT/bench/golden"

BINARIES=(
    bench_fig15_workloads
    bench_fig16_speedup
    bench_fig17_loadmix
    bench_fig18_outloop_classes
    bench_fig19_inloop_classes
    bench_fig20_overhead
    bench_fig21_strideprof_rate
    bench_fig22_lfu_rate
    bench_fig23_train_vs_ref
    bench_fig24_edge_sensitivity
    bench_fig25_stride_sensitivity
    bench_ablation
    bench_prefetch_quality
)

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

failed=0
for b in "${BINARIES[@]}"; do
    if ! "$BUILD/bench/$b" --threads="$THREADS" --no-json > "$OUT/$b.txt"; then
        echo "FAIL: $b exited nonzero" >&2
        failed=1
        continue
    fi
    if ! diff -u "$GOLDEN/$b.txt" "$OUT/$b.txt" > "$OUT/$b.diff"; then
        echo "FAIL: $b output differs from bench/golden/$b.txt" >&2
        cat "$OUT/$b.diff" >&2
        failed=1
    fi
done

if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "figures OK: ${#BINARIES[@]} binaries match bench/golden at --threads=$THREADS"
