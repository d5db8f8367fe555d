#!/usr/bin/env bash
# Run the tier-1 test suite under AddressSanitizer + UBSan, and run
# clang-tidy over the sources when it is installed. This is the
# "native tooling" half of the analysis matrix; scripts/check_all.sh
# runs the full matrix including the simcheck-armed run.
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> configuring ${BUILD} with -DAP_SANITIZE=address;undefined"
cmake -B "${BUILD}" -S . -DAP_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "${JOBS}"

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"

echo "==> tier-1 under ASan+UBSan"
ctest --test-dir "${BUILD}" --output-on-failure -j "${JOBS}"
# The run above covered every slice; each must still exist here: the
# failure-semantics slice (error paths allocate and free across fiber
# switches), readahead (speculative fills cross fiber switches and the
# DMA queue) and observability (docs/OBSERVABILITY.md).
for label in fault prefetch obs; do
    listed="$(ctest --test-dir "${BUILD}" -N -L "${label}")"
    if grep -q '^Total Tests: 0$' <<<"${listed}"; then
        echo "ctest label '${label}' selects no tests"
        exit 1
    fi
done

if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy (src + tools)"
    # Compile-command database from the sanitizer build keeps flags
    # consistent with what actually ships.
    cmake -B "${BUILD}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src/util src/core src/sim src/gpufs src/hostio tools/aplint \
        tools/apstat \
        -name '*.cc' -print0 |
        xargs -0 -n 1 -P "${JOBS}" clang-tidy -p "${BUILD}" --quiet
else
    echo "==> clang-tidy not installed; skipping the static pass"
fi

echo "==> check.sh: all green"
