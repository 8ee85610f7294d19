#include "core/online_scorer.h"

#include "common/macros.h"
#include "core/state_kernel.h"

namespace churnlab {
namespace core {

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
  return kernel::ScorerAdvanceTo(tracker_.View(), options_, tracker_.pows_,
                                 day);
}

Result<std::vector<StabilityPoint>> OnlineStabilityScorer::Observe(
    retail::Day day, const std::vector<Symbol>& symbols) {
  return kernel::ScorerObserve(tracker_.View(), options_, tracker_.pows_, day,
                               symbols);
}

Result<StabilityPoint> OnlineStabilityScorer::Finish() {
  return kernel::ScorerFinish(tracker_.View(), options_, tracker_.pows_);
}

}  // namespace core
}  // namespace churnlab
