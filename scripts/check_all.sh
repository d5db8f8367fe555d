#!/usr/bin/env bash
# The full analysis matrix (see docs/ANALYSIS.md):
#
#   1. aplint      - the AP_* protocol contracts, source-level: the
#                    call contracts (leader-only, lockstep, yield,
#                    lock-order), each checked once against declared
#                    and inferred callee contracts, plus linked escape,
#                    must-check status, assert purity, typestate and
#                    waiver hygiene; any unwaived finding outside
#                    tools/aplint/baseline.json fails
#   2. plain       - the tier-1 suite as shipped
#   3. simcheck    - tier-1 re-run with AP_SIMCHECK=1, so the race/
#                    lock-order/invariant analyses are armed; any
#                    report fails the run
#   4. sanitizers  - tier-1 under ASan+UBSan (via scripts/check.sh),
#                    plus clang-tidy when installed
#
# Rows 1-3 also include the perf gate (scripts/perf_diff): the serving
# harness and the gated bench binaries re-run with --json and diffed
# against the committed BENCH_*.json baselines via `apstat diff`.
#
# The end-to-end tests (ctest label `integration`: the full stack, and
# the bench_table1_latency run diffed against BENCH_table1.json), the
# failure-semantics tests (ctest label `fault`: injector, retry/
# backoff, fill-error propagation), the readahead tests (ctest label
# `prefetch`: stream detection, window adaptation, throttle,
# speculative-page lifecycle, and the bench_prefetch run diffed
# against BENCH_prefetch.json), and the observability tests (ctest
# label `obs`: fault-path recorder, latency histograms, stats export,
# apstat incl. its diff mode, and the bench_fig7_tlb run diffed
# against BENCH_fig7_tlb.json), the serving-harness tests (ctest label
# `serving`: arrivals, admission control, validation, JSON byte
# determinism), the multi-tenant QoS tests (ctest label `tenant`:
# ASID registry, DRR host-IO split, eviction isolation + reclaim
# reserve, tenant teardown, tenant auditor), and the analyzer's own
# suite (ctest label `lint`: the
# two self-host scans plus lexer/parser/rule/call-graph/dataflow
# units) run inside every tier-1 row; after each row, a listing of
# every label (ctest -N -L) fails the row if one has gone empty.
#
# Rows 1-3 (build, test, lint, simcheck) are the tier-1 CI gate and
# live in scripts/ci.sh, which this script delegates to — ci.sh is
# what a CI job runs standalone; check_all.sh adds the sanitizer row
# on top. Wired to `cmake --build <dir> --target check-all`. Rows 1-3
# share one scratch tree and the sanitizer row builds its own, so the
# matrix never dirties a dev build.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== [1-3/4] tier-1 CI gate (build, test, lint, simcheck) ==="
scripts/ci.sh build-plain

echo "=== [4/4] sanitizers ==="
scripts/check.sh build-asan

echo "=== check_all.sh: matrix green ==="
