#ifndef CHURNLAB_E2EBENCH_SESSION_H_
#define CHURNLAB_E2EBENCH_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "churnlab.h"
#include "common/result.h"
#include "inputs.h"
#include "load.h"
#include "timed_backend.h"

namespace churnlab {
namespace e2e {

/// A traffic mix the benchmark serves (README.md gives the reasons).
struct WorkloadSpec {
  const char* name = "";
  const char* why = "";
  /// durable_small's hot set instead of the shared population.
  bool small_population = false;
  size_t clients = 1;
  size_t receipts_per_request = 1024;
  /// Open-loop reads per second.
  double read_rate = 0.0;
  /// Fail (after repeats) a session whose reader ran late or slow.
  bool validate_reads = false;
  /// POST /v1/snapshot after every Scale::snapshot_every acked receipts.
  bool snapshots = false;
  /// Start by recovering a journal of kHistoryLaps laps.
  bool recover = false;
};

/// Laps of recover's journal, and of the fixed history the state-memory
/// metric is measured after.
inline constexpr int64_t kHistoryLaps = 2;

/// Input sizes: `full` for measurement, `smoke` for the ctest check.
struct Scale {
  const char* name = "";
  size_t customers = 0;
  size_t small_customers = 0;
  uint64_t snapshot_every = 0;
  double default_seconds = 12.0;
};

struct SessionConfig {
  const WorkloadSpec* spec = nullptr;
  const Scale* scale = nullptr;
  const Population* population = nullptr;
  std::vector<std::vector<IngestRequest>>* clients = nullptr;
  /// The session's own directory (journal, snapshots).
  std::string work_dir;
  /// recover: the journal restored before every start, its receipt count,
  /// and the snapshot file of its offline replay.
  std::string pristine_journal;
  uint64_t journaled_receipts = 0;
  std::string journal_oracle_snapshot;
  double seconds = 10.0;
  uint64_t seed = 0;
  /// Starts timed for set-up alone and drained at once, half before the
  /// load and half after its checks.
  int unserved_starts = 0;
  /// Serve through TimedBackend instead of the production wiring.
  bool traced = false;
};

struct SessionResult {
  /// Per start: LoadDataset to the first 200 from /v1/health, and the
  /// LoadDataset share of it.
  std::vector<double> setup_s;
  std::vector<double> dataset_load_s;
  /// Sequence of the first receipt the clients send.
  uint64_t base_sequence = 0;
  LoadResult load;
  size_t customers = 0;
  uint64_t state_bytes_total = 0;
  /// Output-check failures; empty when every check passed.
  std::vector<std::string> check_failures;

  // Traced sessions only.
  std::vector<Span> spans;
  std::vector<Round> rounds;
  /// IngestJournal::Open (read-only scan) and ScoringFleet::Recover: of
  /// the start-up recovery for `recover`, of a copy of the journal taken
  /// when the load stopped for the other workloads.
  double scan_s = 0.0;
  double replay_s = 0.0;
};

/// Starts the server, serves the load, drains it and checks its outputs
/// (sequence ranges, zero rejections, snapshot bytes equal to an offline
/// replay); around that, times `config.unserved_starts` more starts.
Result<SessionResult> RunSession(const SessionConfig& config);

/// Replays laps [0, laps) of the stream into a fresh fleet with the
/// server's options, writes its snapshot to `snapshot_path` (unless empty)
/// and returns its state-memory accounting.
Result<api::StateMemoryStats> ReplayLaps(const Population& population,
                                         int64_t laps,
                                         const std::string& snapshot_path);

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_SESSION_H_
