// Fault-injection tests for the serving layer: every armed failpoint site
// is exercised, transient faults are invisible in the output (byte-identical
// to a fault-free run), persistent faults degrade gracefully (quarantine,
// shard poisoning) with reports that are deterministic across thread counts,
// and snapshot corruption is always detected.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "obs/fault_obs.h"
#include "obs/metrics.h"
#include "retail/dataset.h"
#include "serve/fleet.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

class ServeFaultTest : public testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

FleetOptions FaultFleetOptions(size_t num_threads = 1) {
  FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 8;
  options.num_threads = num_threads;
  options.granularity = retail::Granularity::kProduct;
  options.policy.beta = 0.5;
  options.policy.warmup_windows = 1;
  options.policy.drop_threshold = 2.0;
  return options;
}

Receipt MakeReceipt(CustomerId customer, Day day,
                    std::vector<retail::ItemId> items) {
  Receipt receipt;
  receipt.customer = customer;
  receipt.day = day;
  receipt.spend = 1.0;
  receipt.items = std::move(items);
  return receipt;
}

/// A day-sorted stream over enough customers to populate several shards,
/// with a basket collapse so the run raises alerts.
std::vector<Receipt> FaultStream() {
  std::vector<Receipt> stream;
  for (Day day = 0; day < 240; day += 6) {
    for (CustomerId customer = 1; customer <= 24; ++customer) {
      if (day < 120 || customer % 3 == 0) {
        stream.push_back(MakeReceipt(customer, day, {customer, 100, 101}));
      } else {
        stream.push_back(MakeReceipt(customer, day, {900}));
      }
    }
  }
  return stream;
}

std::string SnapshotOf(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

std::string Describe(const BatchReport& report) {
  std::string out;
  char line[256];
  for (const FleetAlert& alert : report.alerts) {
    std::snprintf(line, sizeof(line), "alert %llu@%zu w%d k%d\n",
                  static_cast<unsigned long long>(alert.customer),
                  alert.batch_index, alert.alert.window_index,
                  static_cast<int>(alert.alert.kind));
    out += line;
  }
  for (const RejectedReceipt& rejected : report.rejected) {
    std::snprintf(line, sizeof(line), "rejected %llu@%zu d%d: %s\n",
                  static_cast<unsigned long long>(rejected.customer),
                  rejected.batch_index, rejected.day,
                  rejected.reason.ToString().c_str());
    out += line;
  }
  for (const PoisonedShard& poisoned : report.poisoned) {
    std::snprintf(line, sizeof(line), "poisoned %zu: %s\n", poisoned.shard,
                  poisoned.reason.ToString().c_str());
    out += line;
  }
  return out;
}

/// Replays FaultStream in 30-day batches, then arms `finish_spec` (when
/// set) for the closing FinishAll sweep; returns the concatenated report
/// descriptions and the final snapshot.
struct ReplayOutput {
  std::string reports;
  std::string snapshot;
};

ReplayOutput Replay(FleetOptions options,
                    const char* finish_spec = nullptr) {
  ReplayOutput output;
  auto fleet = ScoringFleet::Make(options, nullptr).ValueOrDie();
  const std::vector<Receipt> stream = FaultStream();
  size_t begin = 0;
  while (begin < stream.size()) {
    const Day batch_end = stream[begin].day + 30;
    size_t end = begin;
    while (end < stream.size() && stream[end].day < batch_end) ++end;
    auto report =
        fleet
            .IngestBatch(std::span<const Receipt>(stream.data() + begin,
                                                  end - begin))
            .ValueOrDie();
    output.reports += Describe(report);
    begin = end;
  }
  if (finish_spec != nullptr) {
    EXPECT_TRUE(FailpointRegistry::Global().ArmFromSpec(finish_spec).ok());
  }
  output.reports += Describe(fleet.FinishAll().ValueOrDie());
  output.snapshot = SnapshotOf(fleet);
  return output;
}

// --- transient faults are invisible ----------------------------------------

TEST_F(ServeFaultTest, TransientReceiptFaultOutputIsByteIdentical) {
  const ReplayOutput clean = Replay(FaultFleetOptions());

  // A 1-in-50 transient error on the per-receipt site, with enough retry
  // budget to ride out every injection: the retried shard tasks resume
  // after the last fully-ingested receipt, so nothing is lost, duplicated,
  // or reordered.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("serve.ingest.receipt=error@every(50)")
                    .ok());
    FleetOptions faulty = FaultFleetOptions(threads);
    faulty.shard_retry.max_retries = 1000;
    faulty.shard_retry.initial_backoff_ms = 0.0;
    const ReplayOutput with_faults = Replay(faulty);
    FailpointRegistry::Global().DisarmAll();

    EXPECT_EQ(with_faults.reports, clean.reports) << threads << " threads";
    EXPECT_EQ(with_faults.snapshot, clean.snapshot) << threads << " threads";
  }
}

TEST_F(ServeFaultTest, TransientShardTaskThrowIsByteIdentical) {
  const Failpoint* const site =
      FailpointRegistry::Global().Get("serve.shard.task");
  // One task per shard with work: an ingest touching one customer hits the
  // site once, a FinishAll sweep once per shard (8).
  {
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("serve.shard.task=throw@nth(1000)")
                    .ok());
    auto fleet =
        ScoringFleet::Make(FaultFleetOptions(), nullptr).ValueOrDie();
    const std::vector<Receipt> one = {MakeReceipt(1, 0, {1})};
    ASSERT_TRUE(fleet.IngestBatch(one).ok());
    EXPECT_EQ(site->hits(), 1u);
    ASSERT_TRUE(fleet.FinishAll().ok());
    EXPECT_EQ(site->hits(), 9u);
    FailpointRegistry::Global().DisarmAll();
  }

  const ReplayOutput clean = Replay(FaultFleetOptions());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.shard.task=throw@nth(1)")
                  .ok());
  FleetOptions faulty = FaultFleetOptions();
  faulty.shard_retry.initial_backoff_ms = 0.0;
  const ReplayOutput with_faults = Replay(faulty);
  EXPECT_EQ(site->fires(), 1u);
  EXPECT_EQ(with_faults.reports, clean.reports);
  EXPECT_EQ(with_faults.snapshot, clean.snapshot);
  FailpointRegistry::Global().DisarmAll();

  // The same throw inside the FinishAll sweep: the retried shard task
  // resumes after the last swept customer.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    FleetOptions sweep_faulty = FaultFleetOptions(threads);
    sweep_faulty.shard_retry.initial_backoff_ms = 0.0;
    const ReplayOutput sweep_faults =
        Replay(sweep_faulty, "serve.shard.task=throw@nth(2)");
    EXPECT_EQ(site->fires(), 1u) << threads << " threads";
    FailpointRegistry::Global().DisarmAll();
    EXPECT_EQ(sweep_faults.reports, clean.reports) << threads << " threads";
    EXPECT_EQ(sweep_faults.snapshot, clean.snapshot) << threads << " threads";
  }
}

// --- persistent faults degrade gracefully ----------------------------------

TEST_F(ServeFaultTest, BatchFailpointFailsTheCall) {
  auto fleet =
      ScoringFleet::Make(FaultFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.ingest.batch=error")
                  .ok());
  std::vector<Receipt> batch = {MakeReceipt(1, 0, {1})};
  const auto report = fleet.IngestBatch(batch);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
}

TEST_F(ServeFaultTest, PersistentFaultPoisonsOneShardDeterministically) {
  // A keyed, always-firing fault pinned to customer 5 during ingest, or to
  // shard 3 during the closing FinishAll: that shard exhausts its retries
  // and is poisoned; every other shard keeps serving. The quarantine and
  // poison reports must be identical for 1, 4, and 16 threads.
  const struct {
    const char* ingest_spec;
    const char* finish_spec;
  } cases[] = {{"serve.ingest.receipt=error@key(5)", nullptr},
               {nullptr, "serve.shard.task=error@key(3)"}};
  for (const auto& fault : cases) {
    std::vector<std::string> outputs;
    for (const size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
      if (fault.ingest_spec != nullptr) {
        ASSERT_TRUE(
            FailpointRegistry::Global().ArmFromSpec(fault.ingest_spec).ok());
      }
      FleetOptions options = FaultFleetOptions(threads);
      options.shard_retry.max_retries = 2;
      options.shard_retry.initial_backoff_ms = 0.0;
      const ReplayOutput output = Replay(options, fault.finish_spec);
      FailpointRegistry::Global().DisarmAll();
      outputs.push_back(output.reports + "---\n" + output.snapshot);
    }
    EXPECT_EQ(outputs[0], outputs[1]);
    EXPECT_EQ(outputs[0], outputs[2]);
    const std::string reports =
        outputs[0].substr(0, outputs[0].find("---\n"));
    if (fault.ingest_spec != nullptr) {
      EXPECT_NE(reports.find("poisoned"), std::string::npos);
      EXPECT_NE(reports.find("rejected"), std::string::npos);
    } else {
      // Only shard 3, reported once (by the sweep itself), nothing
      // quarantined.
      const size_t first = reports.find("poisoned ");
      ASSERT_NE(first, std::string::npos);
      EXPECT_EQ(reports.compare(first, 11, "poisoned 3:"), 0) << reports;
      EXPECT_EQ(reports.find("poisoned ", first + 1), std::string::npos);
      EXPECT_EQ(reports.find("rejected"), std::string::npos);
    }
  }
}

TEST_F(ServeFaultTest, PoisonedShardStaysOutOfServiceAndReportsHealth) {
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.ingest.receipt=error@key(5)")
                  .ok());
  FleetOptions options = FaultFleetOptions();
  options.shard_retry.max_retries = 1;
  options.shard_retry.initial_backoff_ms = 0.0;
  auto fleet = ScoringFleet::Make(options, nullptr).ValueOrDie();

  std::vector<Receipt> batch = {MakeReceipt(5, 0, {1, 2})};
  auto report = fleet.IngestBatch(batch).ValueOrDie();
  ASSERT_EQ(report.poisoned.size(), 1u);
  const size_t shard = report.poisoned[0].shard;
  EXPECT_FALSE(fleet.ShardHealth(shard).ok());
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].customer, 5u);

  // Disarm: the fault is gone, but the shard stays poisoned — receipts
  // routed to it are quarantined without touching its state.
  FailpointRegistry::Global().DisarmAll();
  std::vector<Receipt> later = {MakeReceipt(5, 10, {1, 2})};
  report = fleet.IngestBatch(later).ValueOrDie();
  EXPECT_EQ(report.receipts_ingested, 0u);
  ASSERT_EQ(report.poisoned.size(), 1u);
  EXPECT_EQ(report.poisoned[0].shard, shard);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_NE(report.rejected[0].reason.ToString().find("shard poisoned"),
            std::string::npos);

  // FinishAll skips the poisoned shard but still reports it.
  report = fleet.FinishAll().ValueOrDie();
  ASSERT_EQ(report.poisoned.size(), 1u);
  EXPECT_EQ(report.poisoned[0].shard, shard);
}

TEST_F(ServeFaultTest, ShardRetriesAndPoisonsAreCountedInMetrics) {
  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.shard_retries");
  obs::Counter* const poisoned = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.poisoned_shards");
  obs::Counter* const rejected = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.rejected_receipts");
  obs::Counter* const triggered = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.failpoint.triggered");
  const uint64_t retries_before = retries->Value();
  const uint64_t poisoned_before = poisoned->Value();
  const uint64_t rejected_before = rejected->Value();
  const uint64_t triggered_before = triggered->Value();

  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.ingest.receipt=error@key(5)")
                  .ok());
  FleetOptions options = FaultFleetOptions();
  options.shard_retry.max_retries = 2;
  options.shard_retry.initial_backoff_ms = 0.0;
  auto fleet = ScoringFleet::Make(options, nullptr).ValueOrDie();
  std::vector<Receipt> batch = {MakeReceipt(5, 0, {1, 2})};
  ASSERT_TRUE(fleet.IngestBatch(batch).ok());

  EXPECT_EQ(retries->Value() - retries_before, 2u);
  EXPECT_EQ(poisoned->Value() - poisoned_before, 1u);
  EXPECT_EQ(rejected->Value() - rejected_before, 1u);
  // 3 attempts, each hitting the armed site once.
  EXPECT_EQ(triggered->Value() - triggered_before, 3u);
}

// --- snapshot faults --------------------------------------------------------

ScoringFleet FedFleet() {
  auto fleet =
      ScoringFleet::Make(FaultFleetOptions(), nullptr).ValueOrDie();
  std::vector<Receipt> batch;
  for (CustomerId customer = 1; customer <= 8; ++customer) {
    for (Day day = 0; day < 90; day += 10) {
      batch.push_back(MakeReceipt(customer, day, {customer, 100}));
    }
  }
  std::sort(batch.begin(), batch.end(),
            [](const Receipt& a, const Receipt& b) { return a.day < b.day; });
  EXPECT_TRUE(fleet.IngestBatch(batch).ok());
  return fleet;
}

TEST_F(ServeFaultTest, WriteFrameCorruptionIsCaughtByRestore) {
  const ScoringFleet fleet = FedFleet();
  ASSERT_TRUE(
      FailpointRegistry::Global()
          .ArmFromSpec("serve.snapshot.write_frame=corrupt-bytes@key(0)")
          .ok());
  const std::string snapshot = SnapshotOf(fleet);
  FailpointRegistry::Global().DisarmAll();
  // The frame CRC was computed from the pristine bytes, so the torn write
  // cannot slip through.
  BinaryReader reader(snapshot);
  const auto restored = ScoringFleet::Restore(&reader, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());
}

TEST_F(ServeFaultTest, ReadFrameCorruptionIsCaughtByRestore) {
  const std::string snapshot = SnapshotOf(FedFleet());
  ASSERT_TRUE(
      FailpointRegistry::Global()
          .ArmFromSpec("serve.snapshot.read_frame=corrupt-bytes@key(0)")
          .ok());
  BinaryReader reader(snapshot);
  const auto restored = ScoringFleet::Restore(&reader, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());

  // Disarmed, the same bytes restore cleanly.
  FailpointRegistry::Global().DisarmAll();
  BinaryReader clean(snapshot);
  EXPECT_TRUE(ScoringFleet::Restore(&clean, nullptr).ok());
}

TEST_F(ServeFaultTest, BinaryIoSaveFaultIsCaughtByGenerationCrc) {
  // The generation format CRCs the whole payload, so a single bit flipped
  // anywhere by the file-save failpoint — payload, frame header, or magic —
  // must surface as a clean error, never a silently different fleet.
  const std::string path =
      testing::TempDir() + "/churnlab_fault_snapshot.bin";
  std::remove(path.c_str());
  const ScoringFleet fleet = FedFleet();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("common.binary_io.save=corrupt-bytes")
                  .ok());
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  FailpointRegistry::Global().DisarmAll();
  const auto restored = ScoringFleet::RestoreFromFile(path, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());

  // The error action fails the write itself; the retry loop re-fires it
  // each attempt, so the save ultimately reports the injected error.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("common.binary_io.save=error")
                  .ok());
  EXPECT_TRUE(fleet.SaveSnapshotToFile(path).IsInternal());
  std::remove(path.c_str());
}

TEST_F(ServeFaultTest, BinaryIoOpenFaultIsCaughtOnRestore) {
  const std::string path =
      testing::TempDir() + "/churnlab_fault_open.bin";
  std::remove(path.c_str());
  const ScoringFleet fleet = FedFleet();
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("common.binary_io.open=corrupt-bytes")
                  .ok());
  const auto restored = ScoringFleet::RestoreFromFile(path, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());
  FailpointRegistry::Global().DisarmAll();
  auto clean = ScoringFleet::RestoreFromFile(path, nullptr).ValueOrDie();
  EXPECT_EQ(SnapshotOf(clean), SnapshotOf(fleet));
  std::remove(path.c_str());
}

TEST_F(ServeFaultTest, GenerationFileFallsBackToNewestValidFrame) {
  obs::Counter* const fallbacks = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.snapshot_fallbacks");
  const std::string path =
      testing::TempDir() + "/churnlab_fault_generations.bin";
  std::remove(path.c_str());

  ScoringFleet fleet = FedFleet();
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  const std::string generation1 = SnapshotOf(fleet);

  std::vector<Receipt> more;
  for (CustomerId customer = 1; customer <= 8; ++customer) {
    more.push_back(MakeReceipt(customer, 200, {customer}));
  }
  ASSERT_TRUE(fleet.IngestBatch(more).ok());
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  const std::string generation2 = SnapshotOf(fleet);
  ASSERT_NE(generation1, generation2);

  // Intact file: the newest generation wins, without a fallback.
  const uint64_t fallbacks_before = fallbacks->Value();
  {
    auto restored = ScoringFleet::RestoreFromFile(path, nullptr).ValueOrDie();
    EXPECT_EQ(SnapshotOf(restored), generation2);
    EXPECT_EQ(fallbacks->Value(), fallbacks_before);
  }

  // Torn tail (a crashed append): the file ends mid-frame; restore falls
  // back to the newest complete generation and counts the fallback.
  {
    BinaryWriter torn;
    torn.WriteBytes("CHLFGENS", 8);
    torn.WriteVarint(1000000);  // declares a payload that never arrives
    ASSERT_TRUE(torn.AppendToFile(path).ok());
    auto restored = ScoringFleet::RestoreFromFile(path, nullptr).ValueOrDie();
    EXPECT_EQ(SnapshotOf(restored), generation2);
    EXPECT_EQ(fallbacks->Value(), fallbacks_before + 1);
  }
  std::remove(path.c_str());
}

TEST_F(ServeFaultTest, GenerationFileSkipsCorruptNewestGeneration) {
  const std::string path =
      testing::TempDir() + "/churnlab_fault_crcfail.bin";
  std::remove(path.c_str());
  ScoringFleet fleet = FedFleet();
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  const std::string generation1 = SnapshotOf(fleet);
  std::vector<Receipt> more = {MakeReceipt(1, 200, {1})};
  ASSERT_TRUE(fleet.IngestBatch(more).ok());

  // The newest generation's payload is corrupted as it is read back: its
  // CRC fails, and restore falls back to the older valid generation.
  ASSERT_TRUE(fleet.AppendSnapshotToFile(path).ok());
  // key(1) + limit(1): exactly one corruption, at generation index 1 in the
  // scan — never at shard index 1 inside the inner Restore.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.snapshot.read_frame="
                               "corrupt-bytes@key(1)@limit(1)")
                  .ok());
  auto restored = ScoringFleet::RestoreFromFile(path, nullptr).ValueOrDie();
  FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(SnapshotOf(restored), generation1);

  // A generation file with no valid generation at all is a clean error.
  const std::string empty_path =
      testing::TempDir() + "/churnlab_fault_norestorable.bin";
  BinaryWriter garbage;
  garbage.WriteBytes("CHLFGENS", 8);
  garbage.WriteVarint(1000000);
  ASSERT_TRUE(garbage.SaveToFile(empty_path).ok());
  const auto failed = ScoringFleet::RestoreFromFile(empty_path, nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError());
  std::remove(empty_path.c_str());
  std::remove(path.c_str());
}

// --- retail loader sites ----------------------------------------------------

retail::Dataset SmallDataset() {
  retail::Dataset dataset;
  const retail::ItemId milk = dataset.mutable_items().GetOrAdd("milk");
  const retail::ItemId bread = dataset.mutable_items().GetOrAdd("bread");
  Receipt r1 = MakeReceipt(10, 3, {milk, bread});
  r1.spend = 12.5;
  EXPECT_TRUE(dataset.mutable_store().Append(std::move(r1)).ok());
  Receipt r2 = MakeReceipt(20, 5, {bread});
  r2.spend = 4.0;
  EXPECT_TRUE(dataset.mutable_store().Append(std::move(r2)).ok());
  dataset.SetLabel(10, {retail::Cohort::kLoyal, -1});
  dataset.SetLabel(20, {retail::Cohort::kDefecting, 18});
  dataset.Finalize();
  return dataset;
}

TEST_F(ServeFaultTest, RetailBinaryLoaderFailpointInjects) {
  const std::string path = testing::TempDir() + "/churnlab_fault_data.clb";
  ASSERT_TRUE(SmallDataset().SaveBinary(path).ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("retail.load_binary=error")
                  .ok());
  const auto loaded = retail::Dataset::LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInternal());
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(retail::Dataset::LoadBinary(path).ok());
  std::remove(path.c_str());
}

TEST_F(ServeFaultTest, RetailCsvLoaderFailpointsInject) {
  const std::string prefix = testing::TempDir() + "/churnlab_fault_csv";
  ASSERT_TRUE(SmallDataset().SaveCsv(prefix).ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("retail.load_csv=error")
                  .ok());
  EXPECT_TRUE(retail::Dataset::LoadCsv(prefix).status().IsInternal());
  FailpointRegistry::Global().DisarmAll();

  // Keyed per-receipt injection: only customer 20's rows trip it.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("retail.load_csv.receipt=error@key(20)")
                  .ok());
  EXPECT_TRUE(retail::Dataset::LoadCsv(prefix).status().IsInternal());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("retail.load_csv.receipt=error@key(9999)")
                  .ok());
  EXPECT_TRUE(retail::Dataset::LoadCsv(prefix).ok());
}

// --- thread-pool exception accounting ---------------------------------------

TEST_F(ServeFaultTest, ThreadPoolCountsDroppedExceptions) {
  obs::InstallFaultTelemetry();
  obs::Counter* const dropped_metric =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.threadpool.dropped_exceptions");
  const uint64_t metric_before = dropped_metric->Value();

  ThreadPool pool(4);
  constexpr int kThrowers = 6;
  for (int i = 0; i < kThrowers; ++i) {
    pool.Submit([] { throw FailpointException("serve_fault_test.pool"); });
  }
  bool rethrown = false;
  try {
    pool.WaitIdle();
  } catch (const FailpointException&) {
    rethrown = true;
  }
  EXPECT_TRUE(rethrown) << "the first exception must surface from WaitIdle";
  // The other five cannot be rethrown: they are counted — on the pool and
  // on the obs counter — instead of vanishing.
  EXPECT_EQ(pool.dropped_exceptions(), kThrowers - 1u);
  EXPECT_EQ(dropped_metric->Value() - metric_before, kThrowers - 1u);

  // The pool stays usable after the rethrow.
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ++ran; });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
