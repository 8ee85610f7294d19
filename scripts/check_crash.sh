#!/usr/bin/env bash
# kill -9 chaos harness for the durable ingest journal (docs/ROBUSTNESS.md
# §Durability). Each round floods a journaled serve-http and kills it with
# no warning — either a timed `kill -9` mid-flood or an `abort` failpoint
# at an exact durability boundary (journal append / fsync / checkpoint,
# snapshot write) — then asserts the two recovery invariants:
#
#   1. No acknowledged receipt is ever lost: the recovered journal's
#      next-sequence covers the flood client's last acknowledged sequence.
#   2. Recovery is exact: the recovered fleet state is byte-identical to a
#      fault-free offline replay (serve-replay) of the same receipt prefix,
#      and a `serve-http --recover` restart of the same journal serves it.
#
# Concurrent rounds flood over two connections (`flood --connections 2`,
# connection k owning the customers with id % 2 == k), so coalesced rounds
# overlap in the journal's group commit. Their arrival order depends on
# timing, so they assert invariant 1 and a clean recovery (never DataLoss)
# plus the restart check, but not invariant 2.
#
# The matrix runs under both --journal-fsync=always and batch. With the
# default 6 timed rounds per policy, the 8-point failpoint matrix per
# policy and 4 concurrent rounds per policy, one run exercises 36
# distinct kill points.
#
# Finally the journal suites (journal_test, journal_fuzz_test) run under
# ThreadSanitizer and AddressSanitizer+UBSan; skip that section with
# CHURNLAB_CRASH_NO_SANITIZERS=1.
#
# Usage: scripts/check_crash.sh [build_dir] [timed_rounds_per_policy]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
TIMED_ROUNDS=${2:-6}
CLI="${BUILD_DIR}/tools/churnlab"
if [[ ! -x "${CLI}" ]]; then
  echo "check_crash: ${CLI} not found; run:" >&2
  echo "  cmake -B ${BUILD_DIR} && cmake --build ${BUILD_DIR} --target churnlab_cli" >&2
  exit 1
fi

WORK_DIR=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill -9 "${SERVER_PID}" 2>/dev/null || true
  rm -rf "${WORK_DIR}"
}
trap cleanup EXIT

DATASET="${WORK_DIR}/crash.clb"
# Large enough that a flood takes a visible fraction of a second, so timed
# kills land mid-stream rather than after the fact.
"${CLI}" simulate --out "${DATASET}" --loyal 150 --defecting 150 --seed 11 \
    > /dev/null

JOURNAL="${WORK_DIR}/journal"
SNAPSHOT="${WORK_DIR}/state.snap"
ACKS="${WORK_DIR}/acks.txt"
KILLS=0

# Starts a journaled serve-http; sets SERVER_PID and PORT.
#   start_server <fsync> <log> [extra flags...]
start_server() {
  local fsync="$1" log="$2"
  shift 2
  "${CLI}" serve-http --data "${DATASET}" --port 0 \
      --journal "${JOURNAL}" --journal-fsync "${fsync}" \
      --snapshot-out "${SNAPSHOT}" \
      --snapshot-interval-ms 100 "$@" > "${log}" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's#.*serving on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
           "${log}" | head -1)
    [[ -n "${PORT}" ]] && break
    kill -0 "${SERVER_PID}" 2>/dev/null || {
      echo "check_crash: server died during startup:" >&2
      cat "${log}" >&2
      exit 1
    }
    sleep 0.1
  done
  [[ -n "${PORT}" ]] || { echo "check_crash: no port in ${log}" >&2; exit 1; }
}

# Parses "... next-sequence=N" from a recovery summary line.
next_sequence_of() {
  sed -n 's/.*next-sequence=\([0-9]*\).*/\1/p' "$1" | head -1
}

# One crash round: flood, die, recover, verify.
#   round <tag> <fsync> <kill_mode> <kill_arg> [connections]
#     kill_mode=timed: kill -9 the server kill_arg seconds into the flood
#     kill_mode=failpoint: arm kill_arg (an abort spec); the server kills
#       itself at that exact site and the flood client runs into the corpse
#     connections: flood connections (default 1); above 1 the rounds
#       overlap and invariant 2 is not checked
round() {
  local tag="$1" fsync="$2" kill_mode="$3" kill_arg="$4"
  local connections="${5:-1}"
  rm -rf "${JOURNAL}" "${SNAPSHOT}" "${ACKS}"
  local log="${WORK_DIR}/${tag}.server.log"
  if [[ "${kill_mode}" == failpoint ]]; then
    start_server "${fsync}" "${log}" --failpoints "${kill_arg}"
  else
    start_server "${fsync}" "${log}"
  fi

  # Flood the whole dataset; every ack line lands in ${ACKS} strictly
  # after the server's 200 was read, so the file never claims an ack the
  # client did not observe.
  "${CLI}" flood --data "${DATASET}" --port "${PORT}" \
      --request-receipts 40 --connections "${connections}" \
      --acks-out "${ACKS}" \
      > "${WORK_DIR}/${tag}.flood.log" 2>&1 &
  local flood_pid=$!

  if [[ "${kill_mode}" == timed ]]; then
    sleep "${kill_arg}"
    kill -9 "${SERVER_PID}" 2>/dev/null || true
  fi
  # Either way the server is (about to be) dead: the failpoint rounds
  # _exit(42) inside the armed site. Reap both processes.
  wait "${SERVER_PID}" 2>/dev/null || true
  SERVER_PID=""
  wait "${flood_pid}" 2>/dev/null || true
  KILLS=$((KILLS + 1))

  # The highest acknowledged end: with several connections the ack
  # lines are not in sequence order.
  local acked=0
  if [[ -s "${ACKS}" ]]; then
    acked=$(sed -n 's/.*end=\([0-9]*\).*/\1/p' "${ACKS}" | sort -n | tail -1)
  fi

  # Read-only recovery through the offline tooling: scan the journal as the
  # crashed process left it and write the recovered state.
  local recover_log="${WORK_DIR}/${tag}.recover.log"
  "${CLI}" serve-replay --data "${DATASET}" --recover "${JOURNAL}" \
      --resume "${SNAPSHOT}" --limit-receipts 0 --batch-days 7 \
      --snapshot-out "${WORK_DIR}/${tag}.recovered.snap" \
      > "${recover_log}" 2>&1 || {
    echo "check_crash: ${tag}: recovery failed:" >&2
    cat "${recover_log}" >&2
    exit 1
  }
  if grep -qi 'data loss' "${recover_log}"; then
    echo "check_crash: ${tag}: recovery reported data loss:" >&2
    cat "${recover_log}" >&2
    exit 1
  fi
  local next
  next=$(next_sequence_of "${recover_log}")
  [[ -n "${next}" ]] || {
    echo "check_crash: ${tag}: no recovery summary in ${recover_log}" >&2
    exit 1
  }

  # Invariant 1: every acknowledged receipt survived the crash.
  if [[ "${next}" -lt "${acked}" ]]; then
    echo "check_crash: ${tag}: LOST ACKNOWLEDGED RECEIPTS:" \
         "acked-sequence-end=${acked} but recovered next-sequence=${next}" >&2
    exit 1
  fi

  # Invariant 2: recovered state == fault-free oracle of the same prefix.
  # A single-connection flood sends the day-sorted replay stream
  # sequentially, so sequence k is exactly replay receipt k and
  # `--limit-receipts next` is the acknowledged-plus-journaled prefix.
  if [[ "${connections}" == 1 ]]; then
    "${CLI}" serve-replay --data "${DATASET}" --limit-receipts "${next}" \
        --batch-days 7 --snapshot-out "${WORK_DIR}/${tag}.oracle.snap" \
        > /dev/null 2>&1
    cmp "${WORK_DIR}/${tag}.recovered.snap" \
        "${WORK_DIR}/${tag}.oracle.snap" || {
      echo "check_crash: ${tag}: recovered state differs from the" \
           "fault-free oracle at ${next} receipts" >&2
      exit 1
    }
  fi

  # The real restart path: serve-http --recover on the same journal must
  # come up, report the same next-sequence, and serve.
  local restart_log="${WORK_DIR}/${tag}.restart.log"
  start_server "${fsync}" "${restart_log}" --recover
  local restart_next
  restart_next=$(next_sequence_of "${restart_log}")
  [[ "${restart_next}" == "${next}" ]] || {
    echo "check_crash: ${tag}: serve-http --recover next-sequence" \
         "${restart_next} != offline scan ${next}" >&2
    exit 1
  }
  local health
  health=$(curl -s -o /dev/null -w '%{http_code}' \
           "http://127.0.0.1:${PORT}/v1/health")
  [[ "${health}" == "200" ]] || {
    echo "check_crash: ${tag}: recovered server health got HTTP ${health}" >&2
    exit 1
  }
  kill -TERM "${SERVER_PID}" 2>/dev/null || true
  wait "${SERVER_PID}" 2>/dev/null || {
    echo "check_crash: ${tag}: recovered server drain exited nonzero" >&2
    exit 1
  }
  SERVER_PID=""

  local tail_note=""
  grep -q 'discarded-tail-frames=[1-9]' "${recover_log}" \
      && tail_note=" (torn tail discarded)"
  echo "   ${tag}: acked=${acked} recovered-next=${next} OK${tail_note}"
}

for fsync in always batch; do
  echo "== ${fsync}-fsync: ${TIMED_ROUNDS} timed kill -9 rounds =="
  for i in $(seq 1 "${TIMED_ROUNDS}"); do
    # Spread kills across the flood: 0.05s .. 0.05 + 0.12*(rounds-1) s in.
    delay=$(awk -v i="${i}" 'BEGIN { printf "%.2f", 0.05 + (i - 1) * 0.12 }')
    round "${fsync}-timed-${i}" "${fsync}" timed "${delay}"
  done

  echo "== ${fsync}-fsync: abort failpoints at durability boundaries =="
  round "${fsync}-append-1" "${fsync}" failpoint \
        'serve.journal.append=abort@nth(1)'
  round "${fsync}-append-60" "${fsync}" failpoint \
        'serve.journal.append=abort@nth(60)'
  round "${fsync}-append-150" "${fsync}" failpoint \
        'serve.journal.append=abort@nth(150)'
  round "${fsync}-fsync-2" "${fsync}" failpoint \
        'serve.journal.fsync=abort@nth(2)'
  round "${fsync}-fsync-80" "${fsync}" failpoint \
        'serve.journal.fsync=abort@nth(80)'
  round "${fsync}-ckpt-1" "${fsync}" failpoint \
        'serve.journal.checkpoint=abort@nth(1)'
  round "${fsync}-ckpt-3" "${fsync}" failpoint \
        'serve.journal.checkpoint=abort@nth(3)'
  round "${fsync}-snapwrite-2" "${fsync}" failpoint \
        'serve.snapshot.write_frame=abort@nth(2)'

  echo "== ${fsync}-fsync: concurrent rounds over 2 connections =="
  round "${fsync}-2conn-timed-1" "${fsync}" timed 0.10 2
  round "${fsync}-2conn-timed-2" "${fsync}" timed 0.30 2
  round "${fsync}-2conn-fsync-2" "${fsync}" failpoint \
        'serve.journal.fsync=abort@nth(2)' 2
  round "${fsync}-2conn-fsync-40" "${fsync}" failpoint \
        'serve.journal.fsync=abort@nth(40)' 2
done
echo "== ${KILLS} kill points survived with zero acknowledged loss =="

if [[ "${CHURNLAB_CRASH_NO_SANITIZERS:-0}" != "1" ]]; then
  echo "== journal suites under sanitizers =="
  JOBS=$(nproc 2>/dev/null || echo 2)
  for sanitizer in thread address; do
    build_dir="build-${sanitizer}san"
    echo "-- ${sanitizer} sanitizer (${build_dir}) --"
    cmake -B "${build_dir}" -S . \
      -DCHURNLAB_SANITIZE="${sanitizer}" \
      -DCHURNLAB_BUILD_BENCHMARKS=OFF \
      -DCHURNLAB_BUILD_EXAMPLES=OFF \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${build_dir}" -j "${JOBS}" \
      --target journal_test journal_fuzz_test
    (cd "${build_dir}" && ctest --output-on-failure -R 'Journal')
  done
fi

echo "check_crash: OK"
