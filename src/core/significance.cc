#include "core/significance.h"

#include <span>
#include <string>

#include "core/state_kernel.h"

namespace churnlab {
namespace core {

SignificanceTracker::SignificanceTracker(SignificanceOptions options)
    : options_(options),
      pows_(options.alpha, options.max_abs_exponent, options.ewma_lambda) {}

Result<SignificanceTracker> SignificanceTracker::Make(
    SignificanceOptions options) {
  if (!(options.alpha > 0.0)) {
    return Status::InvalidArgument("alpha must be > 0, got " +
                                   std::to_string(options.alpha));
  }
  if (options.max_abs_exponent < 0.0) {
    return Status::InvalidArgument("max_abs_exponent must be >= 0");
  }
  if (options.kind == SignificanceKind::kEwma &&
      (options.ewma_lambda <= 0.0 || options.ewma_lambda >= 1.0)) {
    return Status::InvalidArgument("ewma_lambda must be in (0, 1)");
  }
  return SignificanceTracker(options);
}

double SignificanceTracker::SignificanceOf(Symbol symbol) const {
  return kernel::SignificanceOf(View(), options_, pows_, symbol);
}

int32_t SignificanceTracker::ContainCount(Symbol symbol) const {
  return kernel::ContainCount(View(), symbol);
}

int32_t SignificanceTracker::MissCount(Symbol symbol) const {
  return kernel::MissCount(View(), symbol);
}

double SignificanceTracker::TotalSignificance() const {
  return kernel::TotalSignificance(View(), options_, pows_);
}

double SignificanceTracker::PresentSignificance(
    const std::vector<Symbol>& symbols) const {
  return kernel::PresentSignificance(View(), options_, pows_, symbols);
}

StabilityPoint SignificanceTracker::ScoreWindow(
    int32_t window_index, const std::vector<Symbol>& symbols) const {
  return kernel::ScoreWindow(View(), options_, pows_, window_index, symbols);
}

std::vector<Symbol> SignificanceTracker::SeenSymbols() const {
  std::vector<Symbol> symbols;
  symbols.reserve(scalars_.num_seen);
  // Dense scan in index order: already ascending, no sort needed.
  const std::span<const int32_t> counts =
      blocks_.contain_counts.Span<const int32_t>();
  for (size_t symbol = 0; symbol < counts.size(); ++symbol) {
    if (counts[symbol] > 0) symbols.push_back(static_cast<Symbol>(symbol));
  }
  return symbols;
}

void SignificanceTracker::AdvanceWindow(
    const std::vector<Symbol>& window_symbols) {
  kernel::AdvanceWindow(View(), options_, pows_, window_symbols);
}

}  // namespace core
}  // namespace churnlab
