#!/usr/bin/env bash
# Golden-output gate for the paper reproduction: runs sprof-repro and diffs
# its stdout against bench/golden/<stem>.txt, concatenated in the driver's
# figure order (`sprof-repro --list` prints each figure with its stem). The
# tables must be byte-identical for every --threads value and whichever
# figures share the process, so a change that moves any reproduced number
# (or makes a table depend on scheduling or on another figure) fails here.
#
# Usage: scripts/check_figures.sh [build-dir] [threads] [figure...|--each]
#   build-dir  CMake build tree holding bench/sprof-repro (default: build)
#   threads    worker threads passed as --threads (default: 1)
#   figure...  figures to render in one process (default: all of them)
#   --each     render every figure alone, one process each
#
# Regenerate the goldens only for a change that means to move the tables:
#   build/bench/sprof-repro --list | while read -r fig stem; do
#     build/bench/sprof-repro "$fig" --no-json > "bench/golden/$stem.txt"
#   done
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-build}"
THREADS="${2:-1}"
shift $(($# < 2 ? $# : 2))
REPRO="$BUILD/bench/sprof-repro"
GOLDEN="$ROOT/bench/golden"

declare -A STEM
FIGURES=()
while read -r fig stem; do
    STEM[$fig]=$stem
    FIGURES+=("$fig")
done < <("$REPRO" --list)

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# check <arg>...: one sprof-repro process against its figures' goldens.
check() {
    local figs=("$@") fig
    [ "$*" = all ] && figs=("${FIGURES[@]}")
    : > "$OUT/expected.txt"
    for fig in "${figs[@]}"; do
        if [ -z "${STEM[$fig]:-}" ]; then
            echo "FAIL: no figure named $fig" >&2
            return 1
        fi
        cat "$GOLDEN/${STEM[$fig]}.txt" >> "$OUT/expected.txt"
    done
    if ! "$REPRO" "$@" --threads="$THREADS" --no-json > "$OUT/actual.txt"; then
        echo "FAIL: sprof-repro $* exited nonzero" >&2
        return 1
    fi
    if ! diff -u "$OUT/expected.txt" "$OUT/actual.txt" >&2; then
        echo "FAIL: sprof-repro $* differs from bench/golden" >&2
        return 1
    fi
    echo "figures OK: sprof-repro $* matches bench/golden at --threads=$THREADS"
}

if [ "$#" -eq 0 ]; then
    check all
elif [ "$*" = --each ]; then
    failed=0
    for fig in "${FIGURES[@]}"; do
        check "$fig" || failed=1
    done
    exit "$failed"
else
    check "$@"
fi
