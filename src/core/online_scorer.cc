#include "core/online_scorer.h"

#include <atomic>

#include "common/macros.h"
#include "core/state_kernel.h"
#include "obs/metrics.h"

namespace churnlab {
namespace core {
namespace kernel {

// Definitions of the shared observability hooks declared in
// state_kernel.h: one metric family whichever state the kernels run over.

obs::Counter* ObservationsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.online_observations");
  return counter;
}

obs::Histogram* ObserveLatencyHistogram() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "churnlab.core.observe_latency_us",
          obs::HistogramOptions::ExponentialLatency());
  return histogram;
}

namespace {
// Process-wide anchor for the windows/sec throughput gauge: nanoseconds of
// the first window emission. Races on the initial store are benign (both
// writers store nearly identical timestamps).
std::atomic<uint64_t> g_first_emit_ns{0};
}  // namespace

void RecordEmittedWindows(size_t count) {
  if (count == 0) return;
  static obs::Counter* const windows_emitted =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.online_windows_emitted");
  static obs::Gauge* const windows_per_sec =
      obs::MetricsRegistry::Global().GetGauge(
          "churnlab.core.online_windows_per_sec");
  windows_emitted->Increment(count);
  const uint64_t now_ns = obs::MonotonicNanos();
  uint64_t first = g_first_emit_ns.load(std::memory_order_relaxed);
  if (first == 0) {
    g_first_emit_ns.compare_exchange_strong(first, now_ns,
                                            std::memory_order_relaxed);
    first = g_first_emit_ns.load(std::memory_order_relaxed);
  }
  const double elapsed_s = static_cast<double>(now_ns - first) * 1e-9;
  if (elapsed_s > 0.0) {
    windows_per_sec->Set(static_cast<double>(windows_emitted->Value()) /
                         elapsed_s);
  }
}

}  // namespace kernel

Result<OnlineStabilityScorer> OnlineStabilityScorer::Make(Options options) {
  if (options.window_span_days <= 0) {
    return Status::InvalidArgument("window_span_days must be positive");
  }
  if (options.origin_day < 0) {
    return Status::InvalidArgument("origin_day must be >= 0");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const SignificanceTracker tracker,
                            SignificanceTracker::Make(options.significance));
  (void)tracker;
  return OnlineStabilityScorer(options);
}

Result<std::vector<StabilityPoint>> OnlineStabilityScorer::AdvanceTo(
    retail::Day day) {
  return kernel::ScorerAdvanceTo(tracker_.state(), state_, options_,
                                 tracker_.pows(), day);
}

Result<std::vector<StabilityPoint>> OnlineStabilityScorer::Observe(
    retail::Day day, const std::vector<Symbol>& symbols) {
  return kernel::ScorerObserve(tracker_.state(), state_, options_,
                               tracker_.pows(), day,
                               std::span<const Symbol>(symbols));
}

Result<StabilityPoint> OnlineStabilityScorer::Finish() {
  return kernel::ScorerFinish(tracker_.state(), state_, options_,
                              tracker_.pows());
}

void OnlineStabilityScorer::SaveState(BinaryWriter* writer) const {
  kernel::ScorerSaveState(
      const_cast<OnlineStabilityScorer*>(this)->tracker_.state(),
      MutableState(), writer);
}

}  // namespace core
}  // namespace churnlab
