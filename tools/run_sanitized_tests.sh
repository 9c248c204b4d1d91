#!/usr/bin/env bash
# Tier-2 gate: build and run the test suite under ThreadSanitizer and/or
# AddressSanitizer (see README "Sanitized builds").
#
#   tools/run_sanitized_tests.sh [thread|address|both] [ctest -R regex]
#
# Default: both sanitizers. Under TSan the run is restricted to the suites
# that exercise concurrency (plus the quadtree core they stress) to keep
# the 5-15x TSan slowdown affordable; override with an explicit regex
# (use '.' for everything). ASan runs the full suite. Both modes skip the
# tests labelled `timing` (overhead-bound smoke benches): sanitizer
# instrumentation inflates exactly what they time. The plain build runs
# them.
#
# Exit status is non-zero when any build or any test (including a reported
# race / memory error, which fails the test binary) fails.

set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-both}"
REGEX="${2:-}"

TSAN_DEFAULT_REGEX='sharded|telemetry|event_log|concurrent|invariant_fuzz|insert_predict|compression|mlq_tool|obs_|shared_arena|maintenance|observe_batch|decay|drift|catalog|variance|risk'

run_one() {
  local sanitizer="$1"
  local regex="$2"
  local build_dir="build-${sanitizer}san"

  echo "=== ${sanitizer} sanitizer: configure + build (${build_dir}) ==="
  cmake -B "${build_dir}" -S . -DMLQ_SANITIZE="${sanitizer}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)"

  echo "=== ${sanitizer} sanitizer: ctest -R '${regex}' -LE timing ==="
  # halt_on_error makes any report fail the offending test immediately.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
    ctest --test-dir "${build_dir}" --output-on-failure -R "${regex}" \
          -LE timing
}

case "${MODE}" in
  thread)
    run_one thread "${REGEX:-${TSAN_DEFAULT_REGEX}}"
    ;;
  address)
    run_one address "${REGEX:-.}"
    ;;
  both)
    run_one thread "${REGEX:-${TSAN_DEFAULT_REGEX}}"
    run_one address "${REGEX:-.}"
    ;;
  *)
    echo "usage: $0 [thread|address|both] [ctest-regex]" >&2
    exit 2
    ;;
esac

echo "sanitized test run(s) passed"
