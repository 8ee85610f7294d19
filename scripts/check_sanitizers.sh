#!/usr/bin/env bash
# Builds the concurrency-sensitive test suites under ThreadSanitizer and
# AddressSanitizer (+UBSan) and runs them. Each sanitizer gets its own build
# tree so the instrumented objects never mix with the regular build.
#
# Usage: scripts/check_sanitizers.sh [thread|address ...]
#   (no arguments = both)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [[ ${#SANITIZERS[@]} -eq 0 ]]; then
  SANITIZERS=(thread address)
fi

JOBS=$(nproc 2>/dev/null || echo 2)

# The test binaries that exercise threads, the streaming kernels over arena
# blocks (every tracker, scorer, monitor and store customer), the parallel
# evaluation sweeps, the journal (group commit, and recovery replayed
# through the fleet), and the dataset loader's parallel receipt decode —
# built selectively to keep the instrumented build small.
TARGETS=(thread_pool_test significance_test significance_equivalence_test
         stability_test stability_model_test online_scorer_test
         monitor_test explanation_test integration_test
         grid_search_test bootstrap_test parallel_determinism_test
         serve_test serve_determinism_test serve_memory_test arena_test
         facade_test failpoint_test serve_fault_test snapshot_fuzz_test
         journal_test journal_fuzz_test journal_scan_test
         telemetry_concurrency_test flight_recorder_test
         http_parser_test net_json_test net_admission_test
         net_coalescer_test net_server_test
         dataset_test robustness_test transaction_store_test)
# gtest registers tests by suite name, so filter on those.
TEST_FILTER='ThreadPool|ParallelFor|Significance|Stability|OnlineScorer|OnlineBatchEquivalence|ExplanationEngine|Integration|GridSearch|Bootstrap|ParallelDeterminism|CustomerStateStore|ScoringFleet|FleetSnapshot|ServeDeterminism|ServeMemory|BlockArena|Facade|Failpoint|RetryPolicy|RetryWithBackoff|ServeFault|SnapshotFuzz|Journal|TelemetryConcurrency|FlightRecorder|Http|ParseReceiptBatch|AdmissionGate|Router|IngestCoalescer|WriteBatchReportJson|WriteCustomerJson|WriteHealthJson|WriteErrorJson|WriteSnapshotJson|Dataset|Robustness|TransactionStore'

for sanitizer in "${SANITIZERS[@]}"; do
  build_dir="build-${sanitizer}san"
  echo "== ${sanitizer} sanitizer (${build_dir}) =="
  cmake -B "${build_dir}" -S . \
    -DCHURNLAB_SANITIZE="${sanitizer}" \
    -DCHURNLAB_BUILD_BENCHMARKS=OFF \
    -DCHURNLAB_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}" --target "${TARGETS[@]}"
  (cd "${build_dir}" && ctest --output-on-failure -R "${TEST_FILTER}")
  echo "== ${sanitizer} sanitizer: OK =="
  echo
done
