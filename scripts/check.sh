#!/bin/sh
# Runs the jobs of .github/workflows/ci.yml that need no runner of their
# own, with CI's flags:
#   1. build-and-test: Release build + ctest (system GoogleTest when
#      installed)
#   2. build-and-test: Release build + ctest against the vendored
#      minigtest shim
#   3. build-and-test: every header under src/asyrgs compiles on its own
#   4. sanitize-address: AddressSanitizer build + ctest (library, tests,
#      tools)
#   5. sanitize-undefined: UndefinedBehaviorSanitizer build + ctest,
#      halting on the first report (ASYRGS_SANITIZE=undefined, which adds
#      float-cast-overflow)
#   6. docs: scripts/check_docs_links.sh
# Every stage runs even when an earlier one fails, so a failing ctest in
# stage 1 does not hide the sanitizer or docs results.  The script lists
# the failed stages at the end and then exits non-zero.
# It leaves four jobs to CI: the ThreadSanitizer subset (sanitize-thread),
# sim-conformance, bench-smoke and perfbench-smoke.
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -u

jobs=${1:-$(nproc 2>/dev/null || echo 2)}
cd "$(dirname "$0")/.."

default_build() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release &&
    cmake --build build -j "$jobs" &&
    (cd build && ctest --output-on-failure -j "$jobs")
}

minigtest_build() {
  cmake -B build-shim -S . -DCMAKE_BUILD_TYPE=Release \
    -DASYRGS_FORCE_MINIGTEST=ON &&
    cmake --build build-shim -j "$jobs" &&
    (cd build-shim && ctest --output-on-failure -j "$jobs")
}

# The umbrella asyrgs.hpp would hide a header that compiles only after
# another one, so each is compiled alone.
standalone_headers() {
  for h in $(cd src && find asyrgs -name '*.hpp' | sort); do
    echo "#include \"$h\"" |
      g++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc -x c++ - ||
      return 1
  done
}

address_sanitizer() {
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DASYRGS_SANITIZE=address -DASYRGS_BUILD_BENCH=OFF \
    -DASYRGS_BUILD_EXAMPLES=OFF &&
    cmake --build build-asan -j "$jobs" &&
    (cd build-asan && ASAN_OPTIONS=detect_leaks=1 \
      ctest --output-on-failure -j "$jobs")
}

undefined_sanitizer() {
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DASYRGS_SANITIZE=undefined -DASYRGS_BUILD_BENCH=OFF \
    -DASYRGS_BUILD_EXAMPLES=OFF &&
    cmake --build build-ubsan -j "$jobs" &&
    (cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
      ctest --output-on-failure -j "$jobs")
}

markdown_links() {
  scripts/check_docs_links.sh
}

failed=""
n=0
for stage in default_build minigtest_build standalone_headers \
  address_sanitizer undefined_sanitizer markdown_links; do
  n=$((n + 1))
  echo "== [$n/6] $stage =="
  "$stage" || failed="$failed $stage"
done

if [ -n "$failed" ]; then
  echo "Failed stages:$failed"
  exit 1
fi
echo "All checks passed."
