#include "core/online_scorer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/stability.h"
#include "core/window.h"

namespace churnlab {
namespace core {
namespace {

OnlineStabilityScorer::Options TwoMonthOptions(double alpha = 2.0) {
  OnlineStabilityScorer::Options options;
  options.significance.alpha = alpha;
  options.window_span_days = 60;
  return options;
}

TEST(OnlineStabilityScorer, MakeValidatesOptions) {
  OnlineStabilityScorer::Options bad_span = TwoMonthOptions();
  bad_span.window_span_days = 0;
  EXPECT_FALSE(OnlineStabilityScorer::Make(bad_span).ok());
  OnlineStabilityScorer::Options bad_alpha = TwoMonthOptions(-1.0);
  EXPECT_FALSE(OnlineStabilityScorer::Make(bad_alpha).ok());
  EXPECT_TRUE(OnlineStabilityScorer::Make(TwoMonthOptions()).ok());
}

TEST(OnlineStabilityScorer, EmitsOnWindowBoundary) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  EXPECT_TRUE(scorer.Observe(5, {1, 2}).ValueOrDie().empty());
  EXPECT_TRUE(scorer.Observe(40, {1}).ValueOrDie().empty());
  // Crossing into window 1 closes window 0.
  const auto emitted = scorer.Observe(70, {1}).ValueOrDie();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].window_index, 0);
  EXPECT_FALSE(emitted[0].has_history);
  EXPECT_DOUBLE_EQ(emitted[0].stability, 1.0);
  EXPECT_EQ(scorer.current_window(), 1);
}

TEST(OnlineStabilityScorer, SkippedWindowsEmittedAsEmpty) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1}).ok());
  // Jump straight to window 3: windows 0, 1, 2 close.
  const auto emitted = scorer.Observe(200, {1}).ValueOrDie();
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_DOUBLE_EQ(emitted[0].stability, 1.0);  // no history yet
  EXPECT_DOUBLE_EQ(emitted[1].stability, 0.0);  // empty after history
  EXPECT_DOUBLE_EQ(emitted[2].stability, 0.0);
}

TEST(OnlineStabilityScorer, RejectsOutOfOrderDays) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(50, {1}).ok());
  EXPECT_TRUE(scorer.Observe(40, {2}).status().IsInvalidArgument());
  // Same-day observations are fine.
  EXPECT_TRUE(scorer.Observe(50, {2}).ok());
}

TEST(OnlineStabilityScorer, RejectsPreOriginDays) {
  OnlineStabilityScorer::Options options = TwoMonthOptions();
  options.origin_day = 100;
  auto scorer = OnlineStabilityScorer::Make(options).ValueOrDie();
  EXPECT_TRUE(scorer.Observe(50, {1}).status().IsInvalidArgument());
  EXPECT_TRUE(scorer.Observe(100, {1}).ok());
}

TEST(OnlineStabilityScorer, FinishClosesCurrentWindow) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1, 2}).ok());
  const StabilityPoint point = scorer.Finish().ValueOrDie();
  EXPECT_EQ(point.window_index, 0);
  EXPECT_EQ(scorer.current_window(), 1);
  // Post-Finish observations in the closed window are rejected.
  EXPECT_TRUE(scorer.Observe(30, {1}).status().IsInvalidArgument());
  EXPECT_TRUE(scorer.Observe(60, {1}).ok());
}

TEST(OnlineStabilityScorer, FinishWithoutObservationsFails) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  const auto finished = scorer.Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_TRUE(finished.status().IsFailedPrecondition());
  // The scorer is still usable: a later observation then Finish succeeds.
  ASSERT_TRUE(scorer.Observe(5, {1}).ok());
  EXPECT_TRUE(scorer.Finish().ok());
}

TEST(OnlineStabilityScorer, AdvanceToWithoutPurchases) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1}).ok());
  const auto emitted = scorer.AdvanceTo(130).ValueOrDie();
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_DOUBLE_EQ(emitted[1].stability, 0.0);  // silent window
}

TEST(OnlineStabilityScorer, InvalidSymbolsDropped) {
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1, kInvalidSymbol}).ok());
  const StabilityPoint point = scorer.Finish().ValueOrDie();
  EXPECT_FALSE(point.has_history);
}

TEST(OnlineStabilityScorer, RejectsInputsBeyondTheSnapshotCaps) {
  // A saved state holding a symbol at 2^24, or more than 2^20 windows,
  // would not load back, so the scorer refuses to build one.
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1}).ok());
  ASSERT_TRUE(scorer.Observe(130, {1}).ok());
  ASSERT_EQ(scorer.current_window(), 2);
  ASSERT_EQ(scorer.windows_emitted(), 2);

  const Symbol past_symbol_space = Symbol{1} << 24;
  const retail::Day past_horizon = 60 * (retail::Day{1} << 20);
  EXPECT_TRUE(scorer.Observe(200, {3, past_symbol_space})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(scorer.Observe(past_horizon, {1}).status().IsInvalidArgument());
  EXPECT_TRUE(scorer.AdvanceTo(past_horizon).status().IsInvalidArgument());
  EXPECT_TRUE(scorer.AdvanceTo(INT32_MAX).status().IsInvalidArgument());
  EXPECT_EQ(scorer.current_window(), 2);
  EXPECT_EQ(scorer.windows_emitted(), 2);

  // Nothing moved: day 130's window still closes with symbol 1 present.
  const auto emitted = scorer.Observe(200, {3}).ValueOrDie();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].window_index, 2);
  EXPECT_GT(emitted[0].present_significance, 0.0);
  // The last window below the horizon is still accepted.
  EXPECT_TRUE(scorer.AdvanceTo(past_horizon - 1).ok());
  EXPECT_EQ(scorer.current_window(), (1 << 20) - 1);
}

TEST(OnlineStabilityScorer, FinishStopsAtTheWindowHorizon) {
  // Window 2^20 - 1 is the last one a saved state can hold closed; Finish
  // refuses to close window 2^20 and changes nothing.
  auto scorer = OnlineStabilityScorer::Make(TwoMonthOptions()).ValueOrDie();
  const retail::Day past_horizon = 60 * (retail::Day{1} << 20);
  ASSERT_TRUE(scorer.Observe(5, {1}).ok());
  ASSERT_TRUE(scorer.AdvanceTo(past_horizon - 1).ok());
  ASSERT_TRUE(scorer.Finish().ok());
  EXPECT_EQ(scorer.current_window(), 1 << 20);
  EXPECT_EQ(scorer.windows_emitted(), 1 << 20);
  EXPECT_TRUE(scorer.Finish().status().IsInvalidArgument());
  EXPECT_EQ(scorer.current_window(), 1 << 20);
  EXPECT_EQ(scorer.windows_emitted(), 1 << 20);
}

// The load-bearing property: streaming results are identical to the batch
// Windower + StabilityComputer pipeline on the same receipts.
class OnlineBatchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(OnlineBatchEquivalenceTest, MatchesBatchPipeline) {
  const double alpha = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  Rng rng(static_cast<uint64_t>(seed));

  // Random receipt stream: ~70 receipts over ~14 windows, small symbol
  // alphabet so collisions and absences are common.
  std::vector<retail::Receipt> receipts;
  retail::Day day = 0;
  while (day < 14 * 60) {
    retail::Receipt receipt;
    receipt.customer = 1;
    receipt.day = day;
    const size_t basket = 1 + rng.NextUint64(6);
    for (size_t i = 0; i < basket; ++i) {
      receipt.items.push_back(static_cast<retail::ItemId>(rng.NextUint64(9)));
    }
    std::sort(receipt.items.begin(), receipt.items.end());
    receipt.items.erase(
        std::unique(receipt.items.begin(), receipt.items.end()),
        receipt.items.end());
    receipts.push_back(receipt);
    day += static_cast<retail::Day>(1 + rng.NextUint64(20));
  }

  // Batch result.
  WindowerOptions window_options;
  window_options.window_span_days = 60;
  const Windower windower(window_options);
  const WindowedHistory history = windower.Build(
      std::span<const retail::Receipt>(receipts),
      [](retail::ItemId item) { return item; });
  SignificanceOptions significance;
  significance.alpha = alpha;
  const StabilitySeries batch =
      StabilityComputer::Make(significance).ValueOrDie().Compute(history);

  // Streaming result.
  OnlineStabilityScorer::Options online_options;
  online_options.significance = significance;
  online_options.window_span_days = 60;
  auto scorer = OnlineStabilityScorer::Make(online_options).ValueOrDie();
  std::vector<StabilityPoint> streamed;
  for (const retail::Receipt& receipt : receipts) {
    const auto emitted =
        scorer.Observe(receipt.day, receipt.items).ValueOrDie();
    streamed.insert(streamed.end(), emitted.begin(), emitted.end());
  }
  // Close any trailing silent windows plus the in-progress one.
  const auto tail =
      scorer.AdvanceTo(static_cast<retail::Day>(history.num_windows()) * 60)
          .ValueOrDie();
  streamed.insert(streamed.end(), tail.begin(), tail.end());

  ASSERT_EQ(streamed.size(), batch.points.size());
  for (size_t k = 0; k < streamed.size(); ++k) {
    EXPECT_EQ(streamed[k].window_index, batch.points[k].window_index);
    EXPECT_EQ(streamed[k].has_history, batch.points[k].has_history);
    EXPECT_DOUBLE_EQ(streamed[k].stability, batch.points[k].stability);
    EXPECT_DOUBLE_EQ(streamed[k].present_significance,
                     batch.points[k].present_significance);
    EXPECT_DOUBLE_EQ(streamed[k].total_significance,
                     batch.points[k].total_significance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphasAndSeeds, OnlineBatchEquivalenceTest,
    ::testing::Combine(::testing::Values(1.0, 1.5, 2.0, 4.0),
                       ::testing::Values(1, 2, 3)));

TEST(OnlineStabilityScorer, EwmaVariantStreamsToo) {
  OnlineStabilityScorer::Options options = TwoMonthOptions();
  options.significance.kind = SignificanceKind::kEwma;
  options.significance.ewma_lambda = 0.6;
  auto scorer = OnlineStabilityScorer::Make(options).ValueOrDie();
  ASSERT_TRUE(scorer.Observe(5, {1, 2}).ok());
  ASSERT_TRUE(scorer.Observe(70, {1}).ok());
  const auto emitted = scorer.Observe(130, {1}).ValueOrDie();
  ASSERT_EQ(emitted.size(), 1u);
  // Window 1 contained only symbol 1; symbol 2's EWMA share was lost.
  EXPECT_LT(emitted[0].stability, 1.0);
  EXPECT_GT(emitted[0].stability, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace churnlab
