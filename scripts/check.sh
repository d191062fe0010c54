#!/bin/sh
# Runs the jobs of .github/workflows/ci.yml that need no runner of their
# own, with CI's flags:
#   1. build-and-test: Release build + ctest (system GoogleTest when
#      installed)
#   2. build-and-test: Release build + ctest against the vendored
#      minigtest shim
#   3. sanitize-address: AddressSanitizer build + ctest (library, tests,
#      tools)
#   4. sanitize-undefined: UndefinedBehaviorSanitizer build + ctest,
#      halting on the first report (ASYRGS_SANITIZE=undefined, which adds
#      float-cast-overflow)
#   5. docs: scripts/check_docs_links.sh
# It leaves four jobs to CI: the ThreadSanitizer subset (sanitize-thread),
# sim-conformance, bench-smoke and perfbench-smoke.
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -eu

jobs=${1:-$(nproc 2>/dev/null || echo 2)}
cd "$(dirname "$0")/.."

echo "== [1/5] default build =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

echo "== [2/5] vendored minigtest build =="
cmake -B build-shim -S . -DCMAKE_BUILD_TYPE=Release -DASYRGS_FORCE_MINIGTEST=ON
cmake --build build-shim -j "$jobs"
(cd build-shim && ctest --output-on-failure -j "$jobs")

echo "== [3/5] AddressSanitizer build =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DASYRGS_SANITIZE=address -DASYRGS_BUILD_BENCH=OFF \
  -DASYRGS_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$jobs"
(cd build-asan && ASAN_OPTIONS=detect_leaks=1 \
  ctest --output-on-failure -j "$jobs")

echo "== [4/5] UndefinedBehaviorSanitizer build =="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DASYRGS_SANITIZE=undefined -DASYRGS_BUILD_BENCH=OFF \
  -DASYRGS_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j "$jobs"
(cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --output-on-failure -j "$jobs")

echo "== [5/5] markdown links =="
scripts/check_docs_links.sh

echo "All checks passed."
