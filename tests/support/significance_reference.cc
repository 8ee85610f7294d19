#include "support/significance_reference.h"

#include <algorithm>

#include "common/macros.h"
#include "common/math_util.h"

namespace churnlab {
namespace core {

ReferenceSignificanceTracker::ReferenceSignificanceTracker(
    SignificanceOptions options)
    : options_(options) {}

Result<ReferenceSignificanceTracker> ReferenceSignificanceTracker::Make(
    SignificanceOptions options) {
  // Same validation as the production tracker.
  CHURNLAB_ASSIGN_OR_RETURN(const SignificanceTracker tracker,
                            SignificanceTracker::Make(options));
  (void)tracker;
  return ReferenceSignificanceTracker(options);
}

double ReferenceSignificanceTracker::SignificanceOf(Symbol symbol) const {
  if (options_.kind == SignificanceKind::kEwma) {
    const auto it = ewma_scores_.find(symbol);
    return it == ewma_scores_.end() ? 0.0 : it->second;
  }
  const auto it = contain_counts_.find(symbol);
  if (it == contain_counts_.end()) return 0.0;
  const double exponent = 2.0 * it->second - windows_seen_;
  if (options_.alpha == 1.0) return 1.0;
  return ClampedPow(options_.alpha, exponent, options_.max_abs_exponent);
}

int32_t ReferenceSignificanceTracker::ContainCount(Symbol symbol) const {
  const auto it = contain_counts_.find(symbol);
  return it == contain_counts_.end() ? 0 : it->second;
}

int32_t ReferenceSignificanceTracker::MissCount(Symbol symbol) const {
  const auto it = contain_counts_.find(symbol);
  if (it == contain_counts_.end()) return 0;
  return windows_seen_ - it->second;
}

double ReferenceSignificanceTracker::TotalSignificance() const {
  double total = 0.0;
  if (options_.kind == SignificanceKind::kEwma) {
    for (const auto& [symbol, score] : ewma_scores_) {
      (void)symbol;
      total += score;
    }
    return total;
  }
  for (const auto& [symbol, count] : contain_counts_) {
    (void)symbol;
    if (options_.alpha == 1.0) {
      total += 1.0;
    } else {
      total += ClampedPow(options_.alpha, 2.0 * count - windows_seen_,
                          options_.max_abs_exponent);
    }
  }
  return total;
}

double ReferenceSignificanceTracker::PresentSignificance(
    const std::vector<Symbol>& symbols) const {
  double present = 0.0;
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    present += SignificanceOf(symbol);
    previous = &symbol;
  }
  return present;
}

std::vector<Symbol> ReferenceSignificanceTracker::SeenSymbols() const {
  std::vector<Symbol> symbols;
  symbols.reserve(contain_counts_.size());
  for (const auto& [symbol, count] : contain_counts_) {
    (void)count;
    symbols.push_back(symbol);
  }
  std::sort(symbols.begin(), symbols.end());
  return symbols;
}

void ReferenceSignificanceTracker::AdvanceWindow(
    const std::vector<Symbol>& window_symbols) {
  if (options_.kind == SignificanceKind::kEwma) {
    // Decay every known symbol, then credit the present ones.
    for (auto& [symbol, score] : ewma_scores_) {
      (void)symbol;
      score *= options_.ewma_lambda;
    }
    const double credit = 1.0 - options_.ewma_lambda;
    const Symbol* previous_ewma = nullptr;
    for (const Symbol& symbol : window_symbols) {
      if (previous_ewma != nullptr && *previous_ewma == symbol) continue;
      ewma_scores_[symbol] += credit;
      previous_ewma = &symbol;
    }
  }
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : window_symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    ++contain_counts_[symbol];
    previous = &symbol;
  }
  ++windows_seen_;
}

}  // namespace core
}  // namespace churnlab
