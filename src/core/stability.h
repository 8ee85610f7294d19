#ifndef CHURNLAB_CORE_STABILITY_H_
#define CHURNLAB_CORE_STABILITY_H_

#include <vector>

#include "common/result.h"
#include "core/significance.h"
#include "core/window.h"

namespace churnlab {
namespace core {

/// A customer's stability series plus per-window context.
struct StabilitySeries {
  std::vector<StabilityPoint> points;

  size_t size() const { return points.size(); }
  double StabilityAt(size_t window) const {
    return points.at(window).stability;
  }
};

/// \brief Computes the per-window stability series of section 2:
///
///   Stability_i^k = sum_{p in u_k} S(p,k) / sum_{p in I} S(p,k).
///
/// Stability is 1 when every significant product reappears in window k and
/// decreases by the significance share of each missing product.
class StabilityComputer {
 public:
  /// Validates the significance options (alpha > 0, clamp >= 0, lambda in
  /// (0, 1) for kEwma). The only way to construct one, per the library-wide
  /// `static Result<T> Make(Options)` convention (docs/API.md): invalid
  /// options surface as a Status instead of propagating into NaN
  /// stabilities.
  static Result<StabilityComputer> Make(SignificanceOptions options);

  /// Computes the stability series of `history`. The companion overload
  /// also exposes the tracker state at each window for explanation.
  StabilitySeries Compute(const WindowedHistory& history) const;

  /// Like Compute, but invokes `on_window(k, tracker, window)` for every
  /// window *before* the tracker advances past it, i.e. with S(p,k) as seen
  /// by window k. Used by the ExplanationEngine.
  template <typename WindowFn>
  StabilitySeries ComputeWithCallback(const WindowedHistory& history,
                                      WindowFn&& on_window) const;

  const SignificanceOptions& options() const { return options_; }

 private:
  explicit StabilityComputer(SignificanceOptions options)
      : options_(options) {}

  SignificanceOptions options_;
};

// ---------------------------------------------------------------------------
// Template implementation
// ---------------------------------------------------------------------------

template <typename WindowFn>
StabilitySeries StabilityComputer::ComputeWithCallback(
    const WindowedHistory& history, WindowFn&& on_window) const {
  StabilitySeries series;
  series.points.reserve(history.windows.size());
  SignificanceTracker tracker(options_);
  for (const Window& window : history.windows) {
    const StabilityPoint point =
        tracker.ScoreWindow(window.index, window.symbols);
    on_window(window.index, tracker, window);
    series.points.push_back(point);
    tracker.AdvanceWindow(window.symbols);
  }
  return series;
}

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_STABILITY_H_
