#!/usr/bin/env bash
# Single CI entry point for the tier-1 gate: build, test, lint, and
# the simcheck-armed re-run as one command with grouped step output.
# The first failing stage stops the run and names itself, so a CI log
# ends with exactly one culprit. check_all.sh rows [1-3] delegate
# here; the sanitizer row stays in scripts/check.sh.
#
# Steps:
#   build     configure + compile the plain tree
#   test      full ctest, then each suite label (fault, prefetch, obs,
#             lint, serving, tenant, simcheck) listed with ctest -N, so
#             a label silently going empty fails without re-running it
#   lint      aplint over the whole tree against the committed (empty)
#             baseline — any unwaived finding fails
#   perf      scripts/perf_diff: the gated benches re-run with --json
#             and compared against the committed BENCH_*.json
#             baselines (per-metric tolerance bands; any regression
#             fails; rebaseline with scripts/perf_diff --rebaseline)
#   bench     apbench/smoke.py: every BENCHMARK.json workload at
#             --smoke size, untraced and traced, plus a --corrupt run
#             that must fail; any workload reported FAILED fails
#   simcheck  the same tier-1 binaries re-run with AP_SIMCHECK=1, so
#             the race/lock-order/invariant/page-lifecycle analyses
#             are armed and any report fails; then a one-line summary
#             of what the gate covered
#
# Usage: scripts/ci.sh [build-dir]   (default: build-plain)
set -euo pipefail

cd "$(dirname "$0")/.."
PLAIN="${1:-build-plain}"
JOBS="$(nproc 2>/dev/null || echo 4)"
LABELS=(fault prefetch obs lint serving tenant simcheck)

STEP=""
step() {
    [ -n "${STEP}" ] && echo "::endgroup::"
    STEP="$1"
    echo
    echo "::group::ci: ${STEP}"
    echo "=== ci.sh: ${STEP} ==="
}
trap '[ $? -ne 0 ] && echo "=== ci.sh: FAILED in step \"${STEP}\" ==="' EXIT

step "build (${PLAIN})"
cmake -B "${PLAIN}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${PLAIN}" -j "${JOBS}"

step "test (${PLAIN})"
ctest --test-dir "${PLAIN}" --output-on-failure -j "${JOBS}"
for label in "${LABELS[@]}"; do
    listed="$(ctest --test-dir "${PLAIN}" -N -L "${label}")"
    if grep -q '^Total Tests: 0$' <<<"${listed}"; then
        echo "ctest label '${label}' selects no tests"
        exit 1
    fi
done

step "lint (baseline: tools/aplint/baseline.json)"
scripts/lint.sh "${PLAIN}"

step "perf (baselines: BENCH_*.json)"
scripts/perf_diff "${PLAIN}"

step "bench (apbench smoke)"
# smoke.py exits nonzero when any workload prints FAILED.
python3 apbench/smoke.py

step "simcheck (AP_SIMCHECK=1, ${PLAIN})"
AP_SIMCHECK=1 ctest --test-dir "${PLAIN}" --output-on-failure -j "${JOBS}"
TOTAL="$(ctest --test-dir "${PLAIN}" -N | tail -1)"
echo "=== ci.sh: simcheck summary: armed re-run green (${TOTAL}),"
echo "    labels guarded: ${LABELS[*]} ==="

echo "::endgroup::"
STEP=""
echo "=== ci.sh: all steps green ==="
