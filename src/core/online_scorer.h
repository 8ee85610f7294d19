#ifndef CHURNLAB_CORE_ONLINE_SCORER_H_
#define CHURNLAB_CORE_ONLINE_SCORER_H_

#include <vector>

#include "common/result.h"
#include "core/significance.h"
#include "core/stability.h"
#include "core/window.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// \brief Streaming per-customer stability scorer.
///
/// The batch pipeline (Windower + StabilityComputer) needs the whole
/// history up front; production monitoring instead sees receipts as they
/// happen. OnlineStabilityScorer consumes a chronological stream of
/// (day, symbol-set) observations and emits one StabilityPoint per window
/// as soon as the window closes — with results bit-identical to the batch
/// pipeline on the same data (guaranteed by tests).
///
/// The streaming logic lives in the kernels of core/state_kernel.h, run
/// over the CustomerState of the tracker this scorer owns; the serving
/// layer's state store runs the same kernels over its shard columns.
/// Move-only.
///
/// \code
///   OnlineStabilityScorer scorer =
///       OnlineStabilityScorer::Make(options).ValueOrDie();
///   for (const retail::Receipt& r : stream) {
///     for (const StabilityPoint& p : scorer.Observe(r.day, r.items)) {
///       alert_if_low(p);
///     }
///   }
///   auto tail = scorer.Finish();  // closes the in-progress window
///   if (tail.ok()) report(*tail);  // error when nothing was ever observed
/// \endcode
class OnlineStabilityScorer {
 public:
  struct Options {
    SignificanceOptions significance;
    /// Width of each window in days (> 0).
    retail::Day window_span_days = 2 * retail::kDaysPerMonth;
    /// Day at which window 0 begins (>= 0).
    retail::Day origin_day = 0;
  };

  /// Validates the options.
  static Result<OnlineStabilityScorer> Make(Options options);

  /// Feeds one observation. `day` must be >= every previously observed day
  /// (chronological stream) and >= origin, its window must lie below
  /// kernel::kMaxWindowsSeen, and every symbol other than kInvalidSymbol
  /// must lie below kernel::kMaxSymbolSpace; violations return
  /// InvalidArgument and leave the scorer unchanged. Returns the stability
  /// points of every window that closed strictly before `day`'s window
  /// (empty vector when `day` falls into the current window).
  Result<std::vector<StabilityPoint>> Observe(
      retail::Day day, const std::vector<Symbol>& symbols);

  /// Closes every window up to but excluding the one containing `day`,
  /// without recording a purchase. Use for "no activity through day X"
  /// advancement. Same ordering rules as Observe.
  Result<std::vector<StabilityPoint>> AdvanceTo(retail::Day day);

  /// Closes the current window and returns its point (plus nothing else).
  /// The scorer can keep streaming afterwards; the next observation must
  /// belong to a later window. Returns FailedPrecondition when no
  /// observation was ever fed (via Observe or AdvanceTo): window 0 would be
  /// a vacuous all-defaults point, and emitting it used to silently skew
  /// downstream aggregations. Returns InvalidArgument, changing nothing,
  /// when the current window is 2^20 or later: a state with that window
  /// closed would not load back (see kernel::kMaxWindowsSeen).
  Result<StabilityPoint> Finish();

  /// Index of the window currently being accumulated.
  int32_t current_window() const { return tracker_.scalars_.current_window; }

  /// Number of windows already emitted.
  int32_t windows_emitted() const { return tracker_.windows_seen(); }

 private:
  friend class StabilityMonitor;

  explicit OnlineStabilityScorer(Options options)
      : options_(options), tracker_(options.significance) {}

  Options options_;
  /// Holds this scorer's state along with the tracker's.
  SignificanceTracker tracker_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_ONLINE_SCORER_H_
