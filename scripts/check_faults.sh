#!/usr/bin/env bash
# Fault-injection gate: runs the failpoint/fault/fuzz suites under
# ThreadSanitizer and AddressSanitizer (+UBSan), sweeps the serve suites
# with CHURNLAB_FAILPOINTS specs armed through the environment, and checks
# the end-to-end acceptance property through the CLI: a replay with a
# 1-in-1000 transient ingest fault (ridden out by shard retries) produces
# byte-identical alerts and snapshots to a fault-free run.
#
# Usage: scripts/check_faults.sh [thread|address ...]
#   (no arguments = both sanitizers, then the CLI A/B check)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [[ ${#SANITIZERS[@]} -eq 0 ]]; then
  SANITIZERS=(thread address)
fi

JOBS=$(nproc 2>/dev/null || echo 2)

FAULT_TARGETS=(failpoint_test serve_fault_test snapshot_fuzz_test
               journal_test journal_fuzz_test journal_scan_test
               thread_pool_test serve_test serve_determinism_test)
FAULT_FILTER='Failpoint|RetryPolicy|RetryWithBackoff|ServeFault|SnapshotFuzz|Journal|ThreadPool'
# Output-neutral delay faults: they reshuffle thread timing without changing
# results, which is exactly what the determinism suites should survive under
# TSan. The serve determinism tests assert byte-identical output themselves.
SWEEP_SPECS=(
  ''
  'serve.shard.task=delay(1)@every(3)'
  'serve.ingest.receipt=delay(1)@every(97)'
)
SWEEP_FILTER='ServeDeterminism|ScoringFleet|FleetSnapshot|JournalScan'

for sanitizer in "${SANITIZERS[@]}"; do
  build_dir="build-${sanitizer}san"
  echo "== ${sanitizer} sanitizer: fault suites (${build_dir}) =="
  cmake -B "${build_dir}" -S . \
    -DCHURNLAB_SANITIZE="${sanitizer}" \
    -DCHURNLAB_BUILD_BENCHMARKS=OFF \
    -DCHURNLAB_BUILD_EXAMPLES=OFF \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}" --target "${FAULT_TARGETS[@]}"
  (cd "${build_dir}" && ctest --output-on-failure -R "${FAULT_FILTER}")
  for spec in "${SWEEP_SPECS[@]}"; do
    echo "-- ${sanitizer}: sweep CHURNLAB_FAILPOINTS='${spec}' --"
    (cd "${build_dir}" &&
     CHURNLAB_FAILPOINTS="${spec}" ctest --output-on-failure -R "${SWEEP_FILTER}")
  done
  echo "== ${sanitizer} sanitizer: OK =="
  echo
done

# --- CLI A/B: transient faults must be invisible in the output --------------

echo "== CLI A/B: transient ingest faults are byte-invisible =="
cmake --build build -j "${JOBS}" --target churnlab_cli
CLI=build/tools/churnlab
[[ -x "${CLI}" ]] || CLI=$(find build -name churnlab -type f | head -1)

WORK=$(mktemp -d)
trap 'rm -rf "${WORK}"' EXIT

"${CLI}" simulate --out "${WORK}/data.clb" --loyal 120 --defecting 120 \
  --months 28 --seed 7 > /dev/null

run_replay() {  # <tag> [extra serve-replay flags...]
  local tag=$1
  shift
  "${CLI}" --metrics-out="${WORK}/${tag}.metrics.json" serve-replay \
    --data "${WORK}/data.clb" --batch-days 7 \
    --snapshot-out "${WORK}/${tag}.snap" "$@" 2> /dev/null \
    | grep -v '^wrote fleet snapshot to ' > "${WORK}/${tag}.out"
}

run_replay baseline --threads 1
run_replay faulty1 --threads 1 --max-shard-retries 64 \
  --failpoints 'serve.ingest.receipt=throw@every(1000)'
run_replay faulty4 --threads 4 --max-shard-retries 64 \
  --failpoints 'serve.ingest.receipt=throw@every(1000)'

for tag in faulty1 faulty4; do
  cmp "${WORK}/baseline.snap" "${WORK}/${tag}.snap" \
    || { echo "FAIL: ${tag} snapshot differs from fault-free baseline"; exit 1; }
  diff "${WORK}/baseline.out" "${WORK}/${tag}.out" \
    || { echo "FAIL: ${tag} replay output differs from fault-free baseline"; exit 1; }
done

# The faults really fired: the injected-fault counter is in the exported
# telemetry and nonzero (the document is compact single-line JSON).
grep -q '"churnlab.failpoint.triggered":' "${WORK}/faulty1.metrics.json" \
  || { echo "FAIL: failpoint.triggered missing from telemetry"; exit 1; }
if grep -q '"churnlab.failpoint.triggered":0[,}]' "${WORK}/faulty1.metrics.json"; then
  echo "FAIL: failpoints armed but never triggered"; exit 1
fi

# --- Durability: kill -9 crash-recovery chaos harness -----------------------
# The sanitizer journal suites already ran above via the fault suites'
# build dirs; check_crash.sh re-running them would rebuild nothing new, so
# the harness here covers the process-death matrix only.
echo "== crash-recovery chaos harness =="
CHURNLAB_CRASH_NO_SANITIZERS=1 "$(dirname "$0")/check_crash.sh" build 2

echo "== fault checks: OK =="
