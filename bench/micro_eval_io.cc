// Microbenchmarks of evaluation (AUROC, ROC curve) and dataset I/O
// (CSV and binary round trips).

#include <cstdio>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "datagen/scenario.h"
#include "eval/roc.h"
#include "retail/dataset.h"

namespace churnlab {
namespace {

void MakeScores(size_t n, std::vector<double>* scores,
                std::vector<int>* labels) {
  Rng rng(3);
  scores->clear();
  labels->clear();
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    scores->push_back(rng.Normal(label == 1 ? 1.0 : 0.0, 1.0));
    labels->push_back(label);
  }
}

void BM_Auroc(benchmark::State& state) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeScores(static_cast<size_t>(state.range(0)), &scores, &labels);
  for (auto _ : state) {
    auto auroc =
        eval::Auroc(scores, labels, eval::ScoreOrientation::kHigherIsPositive);
    benchmark::DoNotOptimize(auroc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Auroc)->Arg(1000)->Arg(100000);

void BM_RocCurve(benchmark::State& state) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeScores(static_cast<size_t>(state.range(0)), &scores, &labels);
  for (auto _ : state) {
    auto curve = eval::RocCurve(scores, labels,
                                eval::ScoreOrientation::kHigherIsPositive);
    benchmark::DoNotOptimize(curve);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RocCurve)->Arg(10000);

const retail::Dataset* NewPaperDataset(size_t customers) {
  datagen::PaperScenarioConfig scenario;
  scenario.population.num_loyal = customers / 2;
  scenario.population.num_defecting = customers / 2;
  scenario.seed = 5;
  auto result = datagen::MakePaperDataset(scenario);
  result.status().Abort("paper dataset");
  return new retail::Dataset(std::move(result).ValueOrDie());
}

const retail::Dataset& SharedDataset() {
  static const retail::Dataset* const kDataset = NewPaperDataset(300);
  return *kDataset;
}

void BM_SaveLoadBinary(benchmark::State& state) {
  const retail::Dataset& dataset = SharedDataset();
  const std::string path = "/tmp/churnlab_bench_dataset.clb";
  for (auto _ : state) {
    dataset.SaveBinary(path).Abort("save");
    auto loaded = retail::Dataset::LoadBinary(path);
    loaded.status().Abort("load");
    benchmark::DoNotOptimize(loaded);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store().num_receipts()));
}
// Wall time: the load decodes receipts on worker threads, which the main
// thread's CPU time would leave out.
BENCHMARK(BM_SaveLoadBinary)->Unit(benchmark::kMillisecond)->UseRealTime();

// Load only, from a file of 103,889 receipts.
void BM_LoadBinary(benchmark::State& state) {
  static const retail::Dataset* const kDataset = NewPaperDataset(1000);
  const std::string path = "/tmp/churnlab_bench_load.clb";
  kDataset->SaveBinary(path).Abort("save");
  for (auto _ : state) {
    auto loaded = retail::Dataset::LoadBinary(path);
    loaded.status().Abort("load");
    benchmark::DoNotOptimize(loaded);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(kDataset->store().num_receipts()));
}
BENCHMARK(BM_LoadBinary)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SaveLoadCsv(benchmark::State& state) {
  const retail::Dataset& dataset = SharedDataset();
  const std::string prefix = "/tmp/churnlab_bench_dataset";
  for (auto _ : state) {
    dataset.SaveCsv(prefix).Abort("save");
    auto loaded = retail::Dataset::LoadCsv(prefix);
    loaded.status().Abort("load");
    benchmark::DoNotOptimize(loaded);
  }
  std::remove((prefix + ".receipts.csv").c_str());
  std::remove((prefix + ".taxonomy.csv").c_str());
  std::remove((prefix + ".labels.csv").c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dataset.store().num_receipts()));
}
BENCHMARK(BM_SaveLoadCsv)->Unit(benchmark::kMillisecond);

void BM_SimulateDataset(benchmark::State& state) {
  for (auto _ : state) {
    datagen::PaperScenarioConfig scenario;
    scenario.population.num_loyal = static_cast<size_t>(state.range(0)) / 2;
    scenario.population.num_defecting = scenario.population.num_loyal;
    scenario.seed = 11;
    auto dataset = datagen::MakePaperDataset(scenario);
    dataset.status().Abort("simulate");
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateDataset)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace churnlab
