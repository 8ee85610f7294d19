// The churnlab::api facade must be a zero-cost veneer: every handle
// delegates to the underlying subsystem and produces identical results to
// wiring the core directly.

#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "churnlab.h"
#include "core/stability_model.h"
#include "serve/fleet.h"

namespace churnlab {
namespace {

const api::Dataset& TestDataset() {
  static const api::Dataset* dataset = [] {
    api::ScenarioConfig config;
    config.population.num_loyal = 25;
    config.population.num_defecting = 25;
    config.num_months = 18;
    config.seed = 7;
    return new api::Dataset(api::MakeScenario(config).ValueOrDie());
  }();
  return *dataset;
}

api::ScorerOptions TestScorerOptions() {
  api::ScorerOptions options;
  options.significance.alpha = 2.0;
  options.window_span_months = 2;
  return options;
}

TEST(Facade, ScorerHandleMatchesRawCoreModel) {
  const api::Dataset& dataset = TestDataset();
  const api::ScorerOptions options = TestScorerOptions();

  const auto handle = api::ScorerHandle::Make(options).ValueOrDie();
  const api::ScoreMatrix via_facade =
      handle.ScoreDataset(dataset).ValueOrDie();

  const auto model = core::StabilityModel::Make(options).ValueOrDie();
  const api::ScoreMatrix via_core = model.ScoreDataset(dataset).ValueOrDie();

  ASSERT_EQ(via_facade.num_rows(), via_core.num_rows());
  ASSERT_EQ(via_facade.num_windows(), via_core.num_windows());
  ASSERT_EQ(via_facade.customers(), via_core.customers());
  for (size_t row = 0; row < via_facade.num_rows(); ++row) {
    for (int32_t window = 0; window < via_facade.num_windows(); ++window) {
      EXPECT_EQ(via_facade.At(row, window), via_core.At(row, window))
          << "row " << row << " window " << window;
    }
  }
}

TEST(Facade, ScorerHandlePerCustomerViewsWork) {
  const api::Dataset& dataset = TestDataset();
  const auto handle =
      api::ScorerHandle::Make(TestScorerOptions()).ValueOrDie();
  const api::CustomerId customer =
      dataset.CustomersWithCohort(api::Cohort::kDefecting).front();

  const api::StabilitySeries series =
      handle.ScoreCustomer(dataset, customer).ValueOrDie();
  EXPECT_FALSE(series.points.empty());

  const api::CustomerReport report =
      handle.AnalyzeCustomer(dataset, customer).ValueOrDie();
  EXPECT_EQ(report.customer, customer);
  EXPECT_FALSE(report.windows.empty());

  const api::SignificanceProfile profile =
      handle.ProfileCustomer(dataset, customer).ValueOrDie();
  EXPECT_EQ(profile.customer, customer);
}

TEST(Facade, FleetHandleMatchesRawFleetAndRoundTripsSnapshot) {
  const api::Dataset& dataset = TestDataset();
  api::FleetOptions options;
  options.scorer.window_span_days = 2 * api::kDaysPerMonth;
  options.num_shards = 8;

  // Day-ordered replay stream, as in production.
  const std::span<const api::Receipt> all = dataset.store().AllReceipts();
  std::vector<api::Receipt> replay(all.begin(), all.end());
  std::stable_sort(replay.begin(), replay.end(),
                   [](const api::Receipt& a, const api::Receipt& b) {
                     return a.day < b.day;
                   });
  const size_t half = replay.size() / 2;
  const std::span<const api::Receipt> first(replay.data(), half);
  const std::span<const api::Receipt> second(replay.data() + half,
                                             replay.size() - half);

  auto handle = api::FleetHandle::Make(options, dataset).ValueOrDie();
  auto raw = serve::ScoringFleet::Make(options, &dataset.taxonomy())
                 .ValueOrDie();

  const api::BatchReport handle_report =
      handle.IngestBatch(first).ValueOrDie();
  const api::BatchReport raw_report = raw.IngestBatch(first).ValueOrDie();
  EXPECT_EQ(handle_report.alerts.size(), raw_report.alerts.size());
  EXPECT_EQ(handle_report.receipts_ingested, raw_report.receipts_ingested);
  EXPECT_EQ(handle.NumCustomers(), raw.NumCustomers());

  // Snapshot through the facade, restore, continue; the continued handle
  // must agree with the raw fleet that never stopped.
  const std::string path = testing::TempDir() + "/facade_fleet.snap";
  ASSERT_TRUE(handle.SaveSnapshot(path).ok());
  auto restored = api::FleetHandle::Restore(path, dataset).ValueOrDie();
  EXPECT_EQ(restored.NumCustomers(), handle.NumCustomers());

  const api::BatchReport resumed_report =
      restored.IngestBatch(second).ValueOrDie();
  const api::BatchReport raw_second = raw.IngestBatch(second).ValueOrDie();
  ASSERT_EQ(resumed_report.alerts.size(), raw_second.alerts.size());
  for (size_t i = 0; i < resumed_report.alerts.size(); ++i) {
    EXPECT_EQ(resumed_report.alerts[i].customer,
              raw_second.alerts[i].customer);
    EXPECT_EQ(resumed_report.alerts[i].alert.window_index,
              raw_second.alerts[i].alert.window_index);
    EXPECT_EQ(resumed_report.alerts[i].alert.stability,
              raw_second.alerts[i].alert.stability);
  }

  const api::BatchReport handle_tail = restored.FinishAll().ValueOrDie();
  const api::BatchReport raw_tail = raw.FinishAll().ValueOrDie();
  EXPECT_EQ(handle_tail.alerts.size(), raw_tail.alerts.size());
}

TEST(Facade, RestoredFleetsTakeTheCallersRuntimeOptions) {
  // Scorer, policy, shard count and granularity come from the snapshot;
  // threads, quarantine and shard retries come from the caller, both when
  // recovering a checkpointed journal and when opening a snapshot.
  const api::Dataset& dataset = TestDataset();
  api::FleetOptions options;
  options.scorer.window_span_days = 2 * api::kDaysPerMonth;
  options.num_shards = 8;
  const std::span<const api::Receipt> all = dataset.store().AllReceipts();
  std::vector<api::Receipt> replay(all.begin(), all.end());
  std::stable_sort(replay.begin(), replay.end(),
                   [](const api::Receipt& a, const api::Receipt& b) {
                     return a.day < b.day;
                   });
  const size_t half = replay.size() / 2;
  const std::span<const api::Receipt> first(replay.data(), half);
  const std::span<const api::Receipt> second(replay.data() + half,
                                             replay.size() - half);

  const std::string dir = testing::TempDir() + "/facade_recover_journal";
  const std::string snapshot_path =
      testing::TempDir() + "/facade_recover.gens";
  std::filesystem::remove_all(dir);
  std::filesystem::remove(snapshot_path);
  {
    api::JournalOptions journal_options;
    journal_options.directory = dir;
    journal_options.fsync = api::FsyncPolicy::kNone;
    auto journal = api::IngestJournal::Open(journal_options).ValueOrDie();
    auto fleet = serve::ScoringFleet::Make(options, &dataset.taxonomy())
                     .ValueOrDie();
    ASSERT_TRUE(journal.Append(0, first).ok());
    ASSERT_TRUE(fleet.IngestBatch(first).ok());
    const auto ref = fleet.AppendSnapshotGeneration(snapshot_path);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(journal.Checkpoint(half, *ref).ok());
    ASSERT_TRUE(journal.Append(half, second).ok());
  }

  api::FleetOptions runtime = options;
  runtime.num_shards = 3;  // the snapshot's 8 shards win
  runtime.num_threads = 3;
  runtime.quarantine_malformed = false;
  runtime.shard_retry.max_retries = 0;
  const auto expect_runtime = [](const api::FleetOptions& got) {
    EXPECT_EQ(got.num_shards, 8u);
    EXPECT_EQ(got.num_threads, 3u);
    EXPECT_FALSE(got.quarantine_malformed);
    EXPECT_EQ(got.shard_retry.max_retries, 0);
  };

  auto recovered =
      api::RecoverFleet(dir, snapshot_path, runtime, dataset).ValueOrDie();
  EXPECT_EQ(recovered.recovery.watermark, half);
  expect_runtime(recovered.fleet.options());

  const auto reopened =
      api::OpenSnapshot(snapshot_path, dataset, runtime).ValueOrDie();
  expect_runtime(reopened.options());
}

TEST(Facade, LoadDatasetValidatesPath) {
  const auto empty = api::LoadDataset("");
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsInvalidArgument());
  EXPECT_FALSE(api::LoadDataset("/nonexistent/fleet.clb").ok());
}

TEST(Facade, DatasetRoundTripsThroughBinaryFormat) {
  const api::Dataset& dataset = TestDataset();
  const std::string path = testing::TempDir() + "/facade_dataset.clb";
  ASSERT_TRUE(dataset.SaveBinary(path).ok());
  const api::Dataset loaded = api::LoadDataset(path).ValueOrDie();
  EXPECT_EQ(loaded.store().num_receipts(), dataset.store().num_receipts());
}

TEST(Facade, EvalRunnerRunsGridSearch) {
  api::GridSearchOptions options;
  options.window_spans_months = {2};
  options.alphas = {2.0};
  options.folds = 2;
  // The test dataset spans 18 months; aim the objective at months (10, 16].
  options.onset_month = 10;
  const auto runner = api::EvalRunner::Make({1}).ValueOrDie();
  const api::GridSearchResult result =
      runner.GridSearch(TestDataset(), options).ValueOrDie();
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.best.window_span_months, 2);
}

}  // namespace
}  // namespace churnlab
