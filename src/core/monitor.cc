#include "core/monitor.h"

#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/state_kernel.h"

namespace churnlab {
namespace core {

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
  const SignificanceTracker& tracker = scorer_.tracker_;
  return kernel::MonitorObserve(tracker.View(), scorer_.options_, policy_,
                                tracker.pows_, day, symbols);
}

Result<std::vector<StabilityAlert>> StabilityMonitor::AdvanceTo(
    retail::Day day) {
  const SignificanceTracker& tracker = scorer_.tracker_;
  return kernel::MonitorAdvanceTo(tracker.View(), scorer_.options_, policy_,
                                  tracker.pows_, day);
}

Result<std::vector<StabilityAlert>> StabilityMonitor::Finish() {
  const SignificanceTracker& tracker = scorer_.tracker_;
  return kernel::MonitorFinish(tracker.View(), scorer_.options_, policy_,
                               tracker.pows_);
}

void StabilityMonitor::SaveState(BinaryWriter* writer) const {
  kernel::MonitorSaveState(scorer_.tracker_.View(), writer);
}

}  // namespace core
}  // namespace churnlab
