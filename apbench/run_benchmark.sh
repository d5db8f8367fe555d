#!/usr/bin/env bash
# Run every apbench workload, one process after another, and keep one
# ap-bench-result document per workload; or diff two such result sets.
#
# Usage (from anywhere in the repository):
#   apbench/run_benchmark.sh [--seed N] [--seconds S] [--trace 0|1]
#                            [--out DIR]
#   apbench/run_benchmark.sh --compare A B
#
# The first form builds apbench/ (RelWithDebInfo) into build-bench/ and
# writes DIR/<workload>.json (end-to-end metrics with their bounds as
# tolerance bands, failed_frac exact) plus DIR/<workload>.log (every
# metric as "name value unit"). Defaults: seed 1, the run_seconds of
# BENCHMARK.json, untraced, DIR build-bench/results/seed<N>.
#
# --compare diffs A/<workload>.json against B/<workload>.json with
# `apstat diff`, workload by workload, and exits 4 if any end-to-end
# metric is worse by more than its bound.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-build-bench}"
WORKLOADS=(serve translate stream-rw hitpath)

usage() {
    sed -n '4,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 1
}

if [ "${1:-}" = "--compare" ]; then
    [ $# -eq 3 ] || usage
    APSTAT="${CARGO_TARGET_DIR}/apbench/apstat/apstat"
    [ -x "${APSTAT}" ] || {
        echo "run_benchmark.sh: ${APSTAT} is not built;" \
             "run the benchmark first" >&2
        exit 1
    }
    FAILED=0
    for w in "${WORKLOADS[@]}"; do
        echo "=== ${w} ==="
        "${APSTAT}" diff "$2/${w}.json" "$3/${w}.json" || FAILED=1
    done
    [ "${FAILED}" -eq 0 ] || exit 4
    exit 0
fi

SEED=1
SECONDS_ARG="$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
TRACE=0
OUT=""
while [ $# -gt 0 ]; do
    case "$1" in
      --seed) SEED="$2"; shift ;;
      --seconds) SECONDS_ARG="$2"; shift ;;
      --trace) TRACE="$2"; shift ;;
      --out) OUT="$2"; shift ;;
      *) usage ;;
    esac
    shift
done
OUT="${OUT:-${CARGO_TARGET_DIR}/results/seed${SEED}}"
mkdir -p "${OUT}"

for w in "${WORKLOADS[@]}"; do
    echo "=== ${w} (seed ${SEED}, ${SECONDS_ARG} s, trace ${TRACE}) ==="
    python3 apbench/run.py --workload "${w}" --seed "${SEED}" \
        --seconds "${SECONDS_ARG}" --trace "${TRACE}" \
        --json "${OUT}/${w}.json" >"${OUT}/${w}.log"
    tail -n 1 "${OUT}/${w}.log"
done
echo "results in ${OUT}"
