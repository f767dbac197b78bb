#!/usr/bin/env bash
# Race check: builds a ThreadSanitizer tree and runs the tests that
# exercise threads — the sweep scheduler, the tracer's per-thread
# buffers, shared read-only arenas and caches, and the shard tests'
# loop threads — plus the service suites. Run from the repository root:
#
#   tools/check.sh            # TSan build + service tests (the default)
#   tools/check.sh address    # AddressSanitizer instead
#   tools/check.sh thread all # whole ctest suite under the sanitizer
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${1:-thread}"
SCOPE="${2:-service}"
BUILD_DIR="build-${SANITIZER}san"

cmake -B "$BUILD_DIR" -S . -DLOCPRIV_SANITIZE="$SANITIZER" > /dev/null

# test_core_experiment_determinism exercises the flattened (point, trial)
# sweep scheduler, the codebase's thread pool, so it rides in the
# race-check lane too.
# test_trace_store runs multi-threaded sweeps over a shared read-only
# arena (heap and mmap), the columnar refactor's concurrency surface.
# test_lppm_optimal shares one lazily built serving plan (matrix + alias
# tables behind a mutex-guarded cache) across protect() threads and
# sweeps it at 1 vs 8 threads — the optimal mechanism's race surface.
TARGETS=(test_service_adaptive test_service_gateway test_service_resilience test_lppm_online
         test_metrics_eval_context test_obs_tracer test_core_experiment_determinism
         test_attack_tracking test_synth_generators test_trace_store test_lppm_optimal
         test_net_frame test_net_loop test_service_shard)
if [ "$SCOPE" = "all" ]; then
  cmake --build "$BUILD_DIR" -j"$(nproc)"
  (cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")
else
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}"
  for t in "${TARGETS[@]}"; do
    echo "== $t (${SANITIZER} sanitizer) =="
    "$BUILD_DIR/tests/$t"
  done
fi

echo "check.sh: ${SANITIZER} sanitizer run clean"
