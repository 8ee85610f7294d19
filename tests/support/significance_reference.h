#ifndef CHURNLAB_TESTS_SUPPORT_SIGNIFICANCE_REFERENCE_H_
#define CHURNLAB_TESTS_SUPPORT_SIGNIFICANCE_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/significance.h"
#include "core/window.h"

namespace churnlab {
namespace core {

/// \brief Reference oracle for SignificanceTracker: the original
/// scan-based implementation, kept verbatim behind the same interface.
///
/// TotalSignificance() re-derives the denominator by scanning the whole
/// seen-symbol table and calling ClampedPow per entry — O(seen catalogue)
/// per window, O(windows x catalogue) per customer series. That cost is why
/// the production tracker went incremental; this class exists so property
/// tests (significance_equivalence_test.cc) and benchmarks can pit the
/// O(|u_k|) implementation against the direct formula on arbitrary
/// histories.
///
/// Do not use on hot paths. Semantics are the paper's, identical to
/// SignificanceTracker within floating-point reassociation error.
class ReferenceSignificanceTracker {
 public:
  explicit ReferenceSignificanceTracker(SignificanceOptions options);

  /// Validates options exactly as SignificanceTracker::Make does.
  static Result<ReferenceSignificanceTracker> Make(
      SignificanceOptions options);

  /// S(p, current window). Zero for never-seen symbols.
  double SignificanceOf(Symbol symbol) const;

  /// c(current window) for `symbol`.
  int32_t ContainCount(Symbol symbol) const;

  /// l(current window) for `symbol`; zero for never-seen symbols.
  int32_t MissCount(Symbol symbol) const;

  /// Sum of S(p, current window) over every symbol in I, by scanning the
  /// seen-symbol table.
  double TotalSignificance() const;

  /// Sum of S(p, current window) over `symbols` (sorted; duplicate
  /// neighbours counted once).
  double PresentSignificance(const std::vector<Symbol>& symbols) const;

  /// All symbols with c > 0, ascending.
  std::vector<Symbol> SeenSymbols() const;

  /// Folds window k's symbol set into the counters.
  void AdvanceWindow(const std::vector<Symbol>& window_symbols);

  int32_t windows_seen() const { return windows_seen_; }

  const SignificanceOptions& options() const { return options_; }

 private:
  SignificanceOptions options_;
  std::unordered_map<Symbol, int32_t> contain_counts_;
  /// kEwma only: the running presence average per seen symbol.
  std::unordered_map<Symbol, double> ewma_scores_;
  int32_t windows_seen_ = 0;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_TESTS_SUPPORT_SIGNIFICANCE_REFERENCE_H_
