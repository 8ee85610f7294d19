#include "core/monitor.h"

#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/state_kernel.h"
#include "obs/metrics.h"

namespace churnlab {
namespace core {
namespace kernel {

void RecordAlert(StabilityAlert::Kind kind) {
  static obs::Counter* const low_stability =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.alerts_low_stability");
  static obs::Counter* const sharp_drop =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.alerts_sharp_drop");
  (kind == StabilityAlert::Kind::kLowStability ? low_stability : sharp_drop)
      ->Increment();
}

}  // namespace kernel

std::string StabilityAlert::ToString() const {
  std::ostringstream out;
  out << (kind == Kind::kLowStability ? "LOW_STABILITY" : "SHARP_DROP")
      << " window=" << window_index
      << " stability=" << FormatDouble(stability, 3)
      << " drop=" << FormatDouble(drop, 3);
  return out.str();
}

Result<StabilityMonitor> StabilityMonitor::Make(
    OnlineStabilityScorer::Options options, MonitorPolicy policy) {
  if (policy.beta < 0.0 || policy.beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0, 1]");
  }
  if (policy.consecutive_windows < 1) {
    return Status::InvalidArgument("consecutive_windows must be >= 1");
  }
  if (policy.warmup_windows < 0) {
    return Status::InvalidArgument("warmup_windows must be >= 0");
  }
  CHURNLAB_ASSIGN_OR_RETURN(OnlineStabilityScorer scorer,
                            OnlineStabilityScorer::Make(options));
  return StabilityMonitor(std::move(scorer), policy);
}

Result<std::vector<StabilityAlert>> StabilityMonitor::Observe(
    retail::Day day, const std::vector<Symbol>& symbols) {
  CHURNLAB_ASSIGN_OR_RETURN(const std::vector<StabilityPoint> points,
                            scorer_.Observe(day, symbols));
  return kernel::Evaluate(state_, policy_,
                          std::span<const StabilityPoint>(points));
}

Result<std::vector<StabilityAlert>> StabilityMonitor::AdvanceTo(
    retail::Day day) {
  CHURNLAB_ASSIGN_OR_RETURN(const std::vector<StabilityPoint> points,
                            scorer_.AdvanceTo(day));
  return kernel::Evaluate(state_, policy_,
                          std::span<const StabilityPoint>(points));
}

Result<std::vector<StabilityAlert>> StabilityMonitor::Finish() {
  Result<StabilityPoint> point = scorer_.Finish();
  if (!point.ok()) {
    if (point.status().IsFailedPrecondition()) {
      // Never-fed monitor: nothing to flush, by contract a no-op.
      return std::vector<StabilityAlert>();
    }
    return point.status();
  }
  const StabilityPoint points[] = {*point};
  return kernel::Evaluate(state_, policy_,
                          std::span<const StabilityPoint>(points));
}

void StabilityMonitor::SaveState(BinaryWriter* writer) const {
  scorer_.SaveState(writer);
  kernel::MonitorTailSaveState(
      const_cast<StabilityMonitor*>(this)->state_, writer);
}

}  // namespace core
}  // namespace churnlab
