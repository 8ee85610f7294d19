// Microbenchmarks of the serving subsystem: batched fleet ingestion
// (batch-size and shard-count sweeps), end-of-stream flush, and snapshot
// save/restore.
//
// Note on threads: results are byte-identical for any thread count by
// design, so the sweeps here vary shards and batch size; run with more
// threads on a multi-core box to measure fan-out speedup.

#include <algorithm>
#include <filesystem>
#include <span>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/binary_io.h"
#include "datagen/scenario.h"
#include "obs/flight_recorder.h"
#include "retail/dataset.h"
#include "serve/fleet.h"
#include "serve/journal.h"
#include "serve/state_store.h"

namespace churnlab {
namespace {

const retail::Dataset& BenchDataset() {
  static const retail::Dataset* dataset = [] {
    datagen::PaperScenarioConfig config;
    config.population.num_loyal = 100;
    config.population.num_defecting = 100;
    config.seed = 31;
    auto result = datagen::MakePaperDataset(config);
    result.status().Abort("bench dataset");
    return new retail::Dataset(std::move(result).ValueOrDie());
  }();
  return *dataset;
}

// The dataset as a production stream: day-ordered, per-customer
// chronological.
const std::vector<retail::Receipt>& BenchStream() {
  static const std::vector<retail::Receipt>* stream = [] {
    const auto all = BenchDataset().store().AllReceipts();
    auto* replay = new std::vector<retail::Receipt>(all.begin(), all.end());
    std::stable_sort(replay->begin(), replay->end(),
                     [](const retail::Receipt& a, const retail::Receipt& b) {
                       return a.day < b.day;
                     });
    return replay;
  }();
  return *stream;
}

serve::FleetOptions BenchOptions(size_t num_shards) {
  serve::FleetOptions options;
  options.scorer.window_span_days = 2 * retail::kDaysPerMonth;
  options.num_shards = num_shards;
  options.num_threads = 1;
  return options;
}

// Replays the full stream in `batch_days`-day batches through a fresh
// fleet; returns total alerts (kept live so nothing is optimized away).
size_t ReplayOnce(size_t num_shards, retail::Day batch_days) {
  auto fleet_result =
      serve::ScoringFleet::Make(BenchOptions(num_shards),
                                &BenchDataset().taxonomy());
  fleet_result.status().Abort("fleet");
  serve::ScoringFleet& fleet = fleet_result.ValueOrDie();
  const std::vector<retail::Receipt>& replay = BenchStream();
  size_t alerts = 0;
  for (size_t begin = 0; begin < replay.size();) {
    const retail::Day batch_end = replay[begin].day + batch_days;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet.IngestBatch(std::span<const retail::Receipt>(
        replay.data() + begin, end - begin));
    report.status().Abort("ingest");
    alerts += report->alerts.size();
    begin = end;
  }
  auto tail = fleet.FinishAll();
  tail.status().Abort("finish");
  return alerts + tail->alerts.size();
}

// Batch-size sweep at the default shard count: per-receipt overhead of the
// batching machinery (partitioning, locking, report merging) shrinks as
// batches grow.
void BM_FleetIngestBatchDays(benchmark::State& state) {
  const retail::Day batch_days = static_cast<retail::Day>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayOnce(16, batch_days));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchStream().size()));
}
BENCHMARK(BM_FleetIngestBatchDays)
    ->Arg(1)
    ->Arg(7)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// Shard-count sweep at weekly batches: measures sharding overhead (hash,
// partition, per-shard lock) single-threaded; on multi-core machines more
// shards also unlock fan-out parallelism.
void BM_FleetIngestShards(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayOnce(num_shards, 7));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchStream().size()));
}
BENCHMARK(BM_FleetIngestShards)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Full replay (weekly batches, 16 shards) with the flight recorder off
// (arg 0) vs armed (arg 1): the A/B pair behind the <5% overhead budget of
// the disarmed fast path plus ring recording.
void BM_ServeReplay(benchmark::State& state) {
  const bool record = state.range(0) != 0;
  if (record) obs::FlightRecorder::Arm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReplayOnce(16, 7));
  }
  if (record) obs::FlightRecorder::Disarm();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(BenchStream().size()));
  state.counters["flight_recorder"] = record ? 1.0 : 0.0;
}
BENCHMARK(BM_ServeReplay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

serve::ScoringFleet FedFleet() {
  auto fleet_result = serve::ScoringFleet::Make(
      BenchOptions(16), &BenchDataset().taxonomy());
  fleet_result.status().Abort("fleet");
  serve::ScoringFleet fleet = std::move(fleet_result).ValueOrDie();
  auto report = fleet.IngestBatch(BenchStream());
  report.status().Abort("ingest");
  return fleet;
}

void BM_FleetSnapshotSave(benchmark::State& state) {
  const serve::ScoringFleet fleet = FedFleet();
  size_t bytes = 0;
  for (auto _ : state) {
    BinaryWriter writer;
    fleet.SaveSnapshot(&writer).Abort("snapshot");
    bytes = writer.buffer().size();
    benchmark::DoNotOptimize(writer.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_FleetSnapshotSave);

void BM_FleetSnapshotRestore(benchmark::State& state) {
  BinaryWriter writer;
  FedFleet().SaveSnapshot(&writer).Abort("snapshot");
  for (auto _ : state) {
    BinaryReader reader(writer.buffer());
    auto restored =
        serve::ScoringFleet::Restore(&reader, &BenchDataset().taxonomy());
    restored.status().Abort("restore");
    benchmark::DoNotOptimize(restored->NumCustomers());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(writer.buffer().size()));
}
BENCHMARK(BM_FleetSnapshotRestore);

// Raw store access path: hash + lock + slab lookup per touch.
void BM_StateStoreGetOrCreate(benchmark::State& state) {
  serve::StateStoreOptions options;
  options.scorer.window_span_days = 60;
  options.num_shards = 16;
  auto store_result = serve::CustomerStateStore::Make(options);
  store_result.status().Abort("store");
  serve::CustomerStateStore& store = store_result.ValueOrDie();
  const size_t kCustomers = 4096;
  retail::CustomerId next = 0;
  for (auto _ : state) {
    const retail::CustomerId customer = next++ % kCustomers;
    const size_t shard = store.ShardOf(customer);
    store.WithShard(shard,
                    [&](serve::CustomerStateStore::ShardAccessor& access) {
                      auto ref = access.GetOrCreate(customer);
                      benchmark::DoNotOptimize(ref.customer());
                      return 0;
                    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateStoreGetOrCreate);

// Byte accounting of the same synthetic population at two scales.
// Iterations(1): the payload is the bytes counters, not wall time.
void BM_FleetMemory(benchmark::State& state) {
  const size_t num_customers = static_cast<size_t>(state.range(0));
  serve::FleetOptions options = BenchOptions(64);
  options.granularity = retail::Granularity::kProduct;
  serve::StateMemoryStats stats;
  for (auto _ : state) {
    auto fleet_result = serve::ScoringFleet::Make(options, nullptr);
    fleet_result.status().Abort("fleet");
    serve::ScoringFleet& fleet = fleet_result.ValueOrDie();
    std::vector<retail::Receipt> batch(num_customers);
    for (int month = 0; month < 3; ++month) {
      for (size_t i = 0; i < num_customers; ++i) {
        retail::Receipt& receipt = batch[i];
        receipt.customer = static_cast<retail::CustomerId>(i + 1);
        receipt.day = month * retail::kDaysPerMonth;
        receipt.spend = 1.0;
        receipt.items = {static_cast<retail::ItemId>(1 + i % 7),
                         static_cast<retail::ItemId>(20 + i % 3)};
      }
      fleet.IngestBatch(batch).status().Abort("ingest");
    }
    stats = fleet.MemoryUsage();
    benchmark::DoNotOptimize(stats.total_bytes);
  }
  state.counters["bytes_total"] = static_cast<double>(stats.total_bytes);
  state.counters["bytes_per_customer"] =
      static_cast<double>(stats.total_bytes) /
      static_cast<double>(stats.customers == 0 ? 1 : stats.customers);
}
BENCHMARK(BM_FleetMemory)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// One 256-receipt journal frame per coalesced round.
std::vector<retail::Receipt> JournalFrameReceipts() {
  std::vector<retail::Receipt> frame(256);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i].customer = static_cast<retail::CustomerId>(i % 512);
    frame[i].day = 1;
    frame[i].spend = 2.5;
    frame[i].items = {static_cast<retail::ItemId>(i % 7),
                      static_cast<retail::ItemId>(20 + i % 3)};
  }
  return frame;
}

// Write-ahead append + round flush: the latency the journal adds to every
// acknowledged coalesced round, per fsync policy (arg 0: none, 1: batch,
// 2: always). Under kBatch the Sync per iteration mirrors the server's
// one-fsync-per-round batch-ack discipline.
void BM_JournalAppend(benchmark::State& state) {
  const serve::FsyncPolicy policy =
      state.range(0) == 0   ? serve::FsyncPolicy::kNone
      : state.range(0) == 1 ? serve::FsyncPolicy::kBatch
                            : serve::FsyncPolicy::kAlways;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "churnlab_bench_journal")
          .string();
  std::filesystem::remove_all(dir);
  serve::JournalOptions options;
  options.directory = dir;
  options.fsync = policy;
  auto journal_result = serve::IngestJournal::Open(options);
  journal_result.status().Abort("journal");
  serve::IngestJournal& journal = journal_result.ValueOrDie();
  const std::vector<retail::Receipt> frame = JournalFrameReceipts();
  for (auto _ : state) {
    journal.Append(journal.next_sequence(), frame).Abort("append");
    journal.Sync().Abort("sync");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
  journal.Close();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->Arg(2);

// Checkpoint at the head: the periodic-snapshot tick's journal half
// (checkpoint record tmp+fsync+rename plus truncating fully-covered
// segments).
void BM_JournalCheckpoint(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "churnlab_bench_journal_ckpt")
          .string();
  std::filesystem::remove_all(dir);
  serve::JournalOptions options;
  options.directory = dir;
  options.fsync = serve::FsyncPolicy::kNone;
  options.max_segment_bytes = 64 << 10;  // exercise rotation + truncation
  auto journal_result = serve::IngestJournal::Open(options);
  journal_result.status().Abort("journal");
  serve::IngestJournal& journal = journal_result.ValueOrDie();
  const std::vector<retail::Receipt> frame = JournalFrameReceipts();
  serve::SnapshotRef ref;
  ref.kind = serve::SnapshotRef::Kind::kGeneration;
  ref.size = 4096;
  ref.crc = 0x12345678;
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      journal.Append(journal.next_sequence(), frame).Abort("append");
    }
    journal.Checkpoint(journal.next_sequence(), ref).Abort("checkpoint");
  }
  state.SetItemsProcessed(state.iterations());
  journal.Close();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalCheckpoint);

// Crash-recovery scan: reopening a journal of `range(0)` 64-receipt frames
// read-only and decoding every frame — the startup cost --recover pays per
// un-checkpointed frame.
void BM_JournalRecoveryScan(benchmark::State& state) {
  const size_t num_frames = static_cast<size_t>(state.range(0));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "churnlab_bench_journal_scan")
          .string();
  std::filesystem::remove_all(dir);
  std::vector<retail::Receipt> frame = JournalFrameReceipts();
  frame.resize(64);
  {
    serve::JournalOptions options;
    options.directory = dir;
    options.fsync = serve::FsyncPolicy::kNone;
    auto journal_result = serve::IngestJournal::Open(options);
    journal_result.status().Abort("journal");
    serve::IngestJournal& journal = journal_result.ValueOrDie();
    for (size_t i = 0; i < num_frames; ++i) {
      journal.Append(journal.next_sequence(), frame).Abort("append");
    }
  }
  for (auto _ : state) {
    serve::JournalOptions options;
    options.directory = dir;
    options.recover = true;
    options.read_only = true;
    serve::JournalRecovery recovery;
    auto scanned = serve::IngestJournal::Open(options, &recovery);
    scanned.status().Abort("scan");
    benchmark::DoNotOptimize(recovery.frames.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_frames * frame.size()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_JournalRecoveryScan)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace churnlab
