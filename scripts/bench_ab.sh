#!/usr/bin/env bash
# A/B of the e2ebench workloads between a base commit and HEAD, in ABBA
# seed pairs, judged by e2ebench/compare.py.
#
# Usage: scripts/bench_ab.sh BASE_REF [WORKLOADS] [SEEDS] [WORK_DIR]
#
#   BASE_REF   the commit to compare HEAD against (e.g. HEAD~1)
#   WORKLOADS  comma-separated e2ebench workloads
#              (default durable_bulk,durable_small,read_mix,recover)
#   SEEDS      comma-separated seeds, one pair of runs each
#              (default 1,2,3,4,5,6,7,8,9,10)
#   WORK_DIR   where the checkouts, builds and results go (default: a new
#              directory from mktemp -d)
#
# Both sides are the committed files of their commit (git archive), so
# uncommitted edits are never measured; each is built in Release by its own
# e2ebench/run.py into its own CARGO_TARGET_DIR. For every workload, pair k
# runs the base first when k is even and HEAD first when k is odd (ABBA),
# so a host that speeds up or slows down during the A/B weighs on both
# sides alike. Each run lasts HEAD's BENCHMARK.json run_seconds. Results
# land in WORK_DIR/results/{base,head}/<workload>/seed<N>/, and HEAD's
# compare.py, with HEAD's BENCHMARK.json, prints the verdict of every
# (metric, workload). Exits 1 when any run failed (its log is named on
# stderr) or any pair is a regression.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,24p' "$0" >&2
  exit 2
fi

BASE_REF=$1
WORKLOADS=${2:-durable_bulk,durable_small,read_mix,recover}
SEEDS=${3:-1,2,3,4,5,6,7,8,9,10}
WORK_DIR=${4:-$(mktemp -d)}

repo_root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_commit=$(git -C "${repo_root}" rev-parse --verify "${BASE_REF}^{commit}")
head_commit=$(git -C "${repo_root}" rev-parse --verify "HEAD^{commit}")
mkdir -p "${WORK_DIR}"
WORK_DIR=$(cd "${WORK_DIR}" && pwd)
echo "bench_ab: base ${base_commit}, head ${head_commit}, in ${WORK_DIR}" >&2

# One checkout per side, reused by a later A/B in the same WORK_DIR only
# while it holds the same commit (else it and its results are replaced).
# Its first run also builds it; the build is part of no metric.
for side in base head; do
  commit=${base_commit}
  [[ ${side} == head ]] && commit=${head_commit}
  checkout="${WORK_DIR}/${side}"
  if [[ "$(cat "${checkout}.commit" 2>/dev/null)" != "${commit}" ]]; then
    rm -rf "${checkout}" "${checkout}.commit" "${WORK_DIR}/results/${side}"
    mkdir -p "${checkout}"
    git -C "${repo_root}" archive "${commit}" | tar -x -C "${checkout}"
    echo "${commit}" > "${checkout}.commit"
  fi
done

run_seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${WORK_DIR}/head/BENCHMARK.json")

# run_side SIDE WORKLOAD SEED: one untraced run of SIDE's own e2ebench. A
# result left by an earlier A/B in this WORK_DIR is removed first, so a
# failed run leaves no result behind for compare.py to count.
failed_runs=0
run_side() {
  local checkout="${WORK_DIR}/$1"
  local out="${WORK_DIR}/results/$1/$2/seed$3"
  echo "bench_ab: $1 $2 seed $3" >&2
  rm -rf "${out}" "${out}.log"
  if ! (cd "${checkout}" &&
          CARGO_TARGET_DIR="${checkout}/.bench_build" python3 e2ebench/run.py \
            --workload "$2" --seed "$3" --seconds "${run_seconds}" \
            --trace 0 --out "${out}" > "${out}.log" 2>&1); then
    echo "bench_ab: $1 $2 seed $3 failed; see ${out}.log" >&2
    failed_runs=$((failed_runs + 1))
  fi
}

IFS=, read -r -a workloads <<< "${WORKLOADS}"
IFS=, read -r -a seeds <<< "${SEEDS}"
for workload in "${workloads[@]}"; do
  mkdir -p "${WORK_DIR}/results/base/${workload}" \
           "${WORK_DIR}/results/head/${workload}"
  for k in "${!seeds[@]}"; do
    seed=${seeds[$k]}
    if (( k % 2 == 0 )); then
      run_side base "${workload}" "${seed}"
      run_side head "${workload}" "${seed}"
    else
      run_side head "${workload}" "${seed}"
      run_side base "${workload}" "${seed}"
    fi
  done
done

status=0
python3 "${WORK_DIR}/head/e2ebench/compare.py" \
  --benchmark "${WORK_DIR}/head/BENCHMARK.json" \
  "${WORK_DIR}/results/base" "${WORK_DIR}/results/head" || status=$?
if (( failed_runs > 0 )); then
  echo "bench_ab: ${failed_runs} run(s) failed; the verdicts above leave" \
       "them out" >&2
  exit 1
fi
exit "${status}"
