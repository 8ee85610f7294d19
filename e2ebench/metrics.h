#ifndef CHURNLAB_E2EBENCH_METRICS_H_
#define CHURNLAB_E2EBENCH_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "session.h"

namespace churnlab {
namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind the value (1 for a single measurement).
  size_t samples = 1;
};

/// Self time of one layer in the traced run: its spans' durations minus
/// the part their children (or joined lower-layer spans) cover.
struct LayerTime {
  std::string layer;
  double self_us_total = 0.0;
  size_t calls = 0;
};

/// The metrics a user of the server sees, from an untraced session;
/// state memory is that of a fleet fed a fixed history (`history_state`).
std::vector<Metric> EndToEndMetrics(const SessionResult& session,
                                    const api::StateMemoryStats& history_state);

struct TraceAnalysis {
  std::vector<Metric> per_layer;
  std::vector<LayerTime> self_times;
  /// Requests that do not join exactly one round, rounds whose range the
  /// joined requests do not cover, reads with no matching query.
  std::vector<std::string> join_failures;
};

/// Per-layer metrics from a traced session (`traced`) and the untraced
/// session of the same run (`untraced`, for CPU, load-generator checks and
/// set-up timings). Runs the parse, decode, encode and journal-bytes
/// replays over the run's own requests.
Result<TraceAnalysis> AnalyzeTrace(const SessionConfig& config,
                                   const SessionResult& untraced,
                                   const SessionResult& traced);

/// Writes every span of `traced` — backend spans plus the clients'
/// request, read and snapshot spans — as JSON lines to `path`.
Status WriteTrace(const SessionResult& traced, const std::string& path);

/// The run-validity figures of the open-loop reader: p99 of how late each
/// read was sent, and reads completed per second.
double ReadLateP99Us(const SessionResult& session);
double ReadRateAchieved(const SessionResult& session);

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_METRICS_H_
