// Randomized equivalence suite: the incremental SignificanceTracker against
// the scan-based ReferenceSignificanceTracker on long random histories,
// across every weighting regime (alpha = 1, moderate and steep alphas, an
// actively-biting exponent clamp, and the EWMA variant). Agreement bound:
// 1e-9 relative.

#include "core/significance.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "support/significance_reference.h"

namespace churnlab {
namespace core {
namespace {

constexpr double kTolerance = 1e-9;

void ExpectClose(double actual, double expected, const std::string& what) {
  const double scale =
      std::max(1.0, std::max(std::fabs(actual), std::fabs(expected)));
  EXPECT_NEAR(actual, expected, kTolerance * scale) << what;
}

/// One random sorted+deduplicated window symbol set over [0, catalogue).
std::vector<Symbol> RandomWindow(Rng* rng, size_t catalogue) {
  std::vector<Symbol> symbols;
  for (size_t s = 0; s < catalogue; ++s) {
    // Uneven presence probabilities so contain counts spread out: some
    // symbols are near-always present, some rare, some never seen.
    const double p = static_cast<double>(s % 7) / 8.0;
    if (rng->Bernoulli(p)) symbols.push_back(static_cast<Symbol>(s));
  }
  return symbols;  // ascending by construction
}

void RunEquivalence(const SignificanceOptions& options, uint64_t seed,
                    int32_t num_windows, size_t catalogue) {
  SignificanceTracker tracker = SignificanceTracker::Make(options).ValueOrDie();
  ReferenceSignificanceTracker reference =
      ReferenceSignificanceTracker::Make(options).ValueOrDie();
  Rng rng(seed);
  for (int32_t k = 0; k < num_windows; ++k) {
    const std::vector<Symbol> window = RandomWindow(&rng, catalogue);
    const std::string at = "window " + std::to_string(k);

    for (size_t s = 0; s < catalogue; ++s) {
      const Symbol symbol = static_cast<Symbol>(s);
      EXPECT_EQ(tracker.ContainCount(symbol), reference.ContainCount(symbol))
          << at << " symbol " << s;
      EXPECT_EQ(tracker.MissCount(symbol), reference.MissCount(symbol))
          << at << " symbol " << s;
      ExpectClose(tracker.SignificanceOf(symbol),
                  reference.SignificanceOf(symbol),
                  at + " significance of symbol " + std::to_string(s));
    }
    ExpectClose(tracker.TotalSignificance(), reference.TotalSignificance(),
                at + " total");
    ExpectClose(tracker.PresentSignificance(window),
                reference.PresentSignificance(window), at + " present");
    EXPECT_EQ(tracker.SeenSymbols(), reference.SeenSymbols()) << at;

    tracker.AdvanceWindow(window);
    reference.AdvanceWindow(window);
    EXPECT_EQ(tracker.windows_seen(), reference.windows_seen()) << at;
  }
}

TEST(SignificanceEquivalence, AlphaOne) {
  SignificanceOptions options;
  options.alpha = 1.0;  // degenerate: every seen symbol weighs exactly 1
  RunEquivalence(options, 101, 150, 48);
}

TEST(SignificanceEquivalence, ModerateAlphas) {
  for (const double alpha : {1.5, 2.0}) {
    SignificanceOptions options;
    options.alpha = alpha;
    RunEquivalence(options, 202 + static_cast<uint64_t>(alpha * 10), 150, 48);
  }
}

TEST(SignificanceEquivalence, SteepAlphaLongHistory) {
  // alpha = 4 over 150 windows spans ~180 decades of significance without
  // hitting the default clamp; stresses the recurrence's dynamic range.
  SignificanceOptions options;
  options.alpha = 4.0;
  RunEquivalence(options, 303, 150, 48);
}

TEST(SignificanceEquivalence, ActiveClamp) {
  // max_abs_exponent = 8 starts biting once windows_seen > 8, forcing the
  // incremental tracker onto its histogram fallback for most of the run.
  for (const double alpha : {1.5, 2.0, 4.0}) {
    SignificanceOptions options;
    options.alpha = alpha;
    options.max_abs_exponent = 8.0;
    RunEquivalence(options, 404 + static_cast<uint64_t>(alpha * 10), 120, 48);
  }
}

TEST(SignificanceEquivalence, ClampBoundaryExactlyAtHorizon) {
  // windows_seen == max_abs_exponent is the last window where the
  // incremental total is trusted; cross the boundary by a few windows.
  SignificanceOptions options;
  options.alpha = 2.0;
  options.max_abs_exponent = 16.0;
  RunEquivalence(options, 505, 24, 32);
}

TEST(SignificanceEquivalence, Ewma) {
  for (const double lambda : {0.5, 0.7, 0.95}) {
    SignificanceOptions options;
    options.kind = SignificanceKind::kEwma;
    options.ewma_lambda = lambda;
    RunEquivalence(options, 606 + static_cast<uint64_t>(lambda * 100), 150,
                   48);
  }
}

TEST(SignificanceEquivalence, SparseHistoryWithLongAbsences) {
  // Mostly-empty windows: lazy EWMA decay and the alpha recurrence both have
  // to bridge long gaps where nothing is present.
  for (const SignificanceKind kind :
       {SignificanceKind::kAlphaPower, SignificanceKind::kEwma}) {
    SignificanceOptions options;
    options.kind = kind;
    SignificanceTracker tracker =
        SignificanceTracker::Make(options).ValueOrDie();
    ReferenceSignificanceTracker reference =
        ReferenceSignificanceTracker::Make(options).ValueOrDie();
    Rng rng(707);
    for (int32_t k = 0; k < 200; ++k) {
      std::vector<Symbol> window;
      if (k % 17 == 0) window = RandomWindow(&rng, 24);
      ExpectClose(tracker.TotalSignificance(), reference.TotalSignificance(),
                  "sparse window " + std::to_string(k));
      tracker.AdvanceWindow(window);
      reference.AdvanceWindow(window);
    }
    for (Symbol s = 0; s < 24; ++s) {
      ExpectClose(tracker.SignificanceOf(s), reference.SignificanceOf(s),
                  "sparse final symbol " + std::to_string(s));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace churnlab
