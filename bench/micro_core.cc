// Microbenchmarks of the stability model's hot paths: windowing,
// significance tracking, per-customer stability series, and whole-dataset
// scoring.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/stability.h"
#include "core/stability_model.h"
#include "core/window.h"
#include "datagen/scenario.h"
#include "support/significance_reference.h"

namespace churnlab {
namespace {

// Synthetic per-customer receipt history: `months` months, ~4 trips/month,
// `basket` items per trip from a 200-item repertoire.
std::vector<retail::Receipt> MakeHistory(int32_t months, size_t basket,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<retail::Receipt> receipts;
  for (int32_t month = 0; month < months; ++month) {
    const int64_t trips = 4;
    for (int64_t t = 0; t < trips; ++t) {
      retail::Receipt receipt;
      receipt.customer = 1;
      receipt.day = retail::MonthToFirstDay(month) +
                    static_cast<retail::Day>(rng.NextUint64(30));
      for (size_t i = 0; i < basket; ++i) {
        receipt.items.push_back(
            static_cast<retail::ItemId>(rng.NextUint64(200)));
      }
      receipt.spend = 25.0;
      receipts.push_back(std::move(receipt));
    }
  }
  std::sort(receipts.begin(), receipts.end(),
            [](const retail::Receipt& a, const retail::Receipt& b) {
              return a.day < b.day;
            });
  return receipts;
}

void BM_Windowing(benchmark::State& state) {
  const auto receipts =
      MakeHistory(static_cast<int32_t>(state.range(0)), 15, 7);
  core::WindowerOptions options;
  options.window_span_days = 60;
  const core::Windower windower(options);
  for (auto _ : state) {
    auto history = windower.Build(
        std::span<const retail::Receipt>(receipts),
        [](retail::ItemId item) { return item; });
    benchmark::DoNotOptimize(history);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(receipts.size()));
}
BENCHMARK(BM_Windowing)->Arg(28)->Arg(120);

void BM_SignificanceAdvance(benchmark::State& state) {
  const size_t symbols = static_cast<size_t>(state.range(0));
  std::vector<core::Symbol> window(symbols);
  for (size_t i = 0; i < symbols; ++i) window[i] = static_cast<uint32_t>(i);
  for (auto _ : state) {
    core::SignificanceTracker tracker(core::SignificanceOptions{});
    for (int k = 0; k < 14; ++k) {
      tracker.AdvanceWindow(window);
      benchmark::DoNotOptimize(tracker.TotalSignificance());
    }
  }
  state.SetItemsProcessed(state.iterations() * 14 *
                          static_cast<int64_t>(symbols));
}
BENCHMARK(BM_SignificanceAdvance)->Arg(30)->Arg(300);

// Long-history scoring: 600 windows over a 300-symbol repertoire. The old
// scan-based tracker paid O(seen catalogue) per TotalSignificance call, so
// this is where the incremental recurrence shows up; the reference
// benchmark below keeps the before/after ratio measurable in one binary.
template <typename Tracker>
void RunLongHistory(benchmark::State& state) {
  const size_t symbols = 300;
  const int32_t windows = static_cast<int32_t>(state.range(0));
  // Rotating half-present windows so contain counts diverge per symbol.
  std::vector<std::vector<core::Symbol>> history(7);
  for (size_t w = 0; w < history.size(); ++w) {
    for (size_t s = w % 2; s < symbols; s += 2) {
      history[w].push_back(static_cast<core::Symbol>(s));
    }
  }
  for (auto _ : state) {
    Tracker tracker{core::SignificanceOptions{}};
    double checksum = 0.0;
    for (int32_t k = 0; k < windows; ++k) {
      const auto& window = history[static_cast<size_t>(k) % history.size()];
      checksum += tracker.PresentSignificance(window) /
                  (tracker.TotalSignificance() + 1.0);
      tracker.AdvanceWindow(window);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * windows);
}

void BM_SignificanceLongHistory(benchmark::State& state) {
  RunLongHistory<core::SignificanceTracker>(state);
}
BENCHMARK(BM_SignificanceLongHistory)->Arg(120)->Arg(600);

void BM_SignificanceLongHistoryReference(benchmark::State& state) {
  RunLongHistory<core::ReferenceSignificanceTracker>(state);
}
BENCHMARK(BM_SignificanceLongHistoryReference)->Arg(120)->Arg(600);

void BM_StabilitySeries(benchmark::State& state) {
  const auto receipts =
      MakeHistory(static_cast<int32_t>(state.range(0)), 15, 11);
  core::WindowerOptions window_options;
  window_options.window_span_days = 60;
  const core::Windower windower(window_options);
  const auto history = windower.Build(
      std::span<const retail::Receipt>(receipts),
      [](retail::ItemId item) { return item; });
  const core::StabilityComputer computer =
      core::StabilityComputer::Make(core::SignificanceOptions{}).ValueOrDie();
  for (auto _ : state) {
    auto series = computer.Compute(history);
    benchmark::DoNotOptimize(series);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(history.num_windows()));
}
BENCHMARK(BM_StabilitySeries)->Arg(28)->Arg(120);

void BM_ScoreDataset(benchmark::State& state) {
  datagen::PaperScenarioConfig scenario;
  scenario.population.num_loyal = static_cast<size_t>(state.range(0)) / 2;
  scenario.population.num_defecting = scenario.population.num_loyal;
  scenario.seed = 5;
  auto dataset_result = datagen::MakePaperDataset(scenario);
  dataset_result.status().Abort("paper dataset");
  const retail::Dataset& dataset = dataset_result.ValueOrDie();

  auto model_result =
      core::StabilityModel::Make(core::StabilityModelOptions{});
  const core::StabilityModel& model = model_result.ValueOrDie();
  for (auto _ : state) {
    auto scores = model.ScoreDataset(dataset);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScoreDataset)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace churnlab
