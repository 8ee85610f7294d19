// Unit tests for the serving subsystem: the sharded CustomerStateStore,
// ScoringFleet batch ingestion, and snapshot robustness (corruption,
// truncation, version and shard-count mismatches).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/state_store.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

StateStoreOptions SmallStoreOptions() {
  StateStoreOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  return options;
}

FleetOptions SmallFleetOptions() {
  FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  options.num_threads = 1;
  // Product granularity: no taxonomy needed, symbols are item ids.
  options.granularity = retail::Granularity::kProduct;
  // Alert eagerly so the tests see alerts on short streams.
  options.policy.beta = 0.5;
  options.policy.warmup_windows = 1;
  options.policy.drop_threshold = 2.0;  // disable the drop rule
  return options;
}

std::string SnapshotOf(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
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

TEST(CustomerStateStore, MakeRejectsBadOptions) {
  StateStoreOptions zero_shards = SmallStoreOptions();
  zero_shards.num_shards = 0;
  EXPECT_FALSE(CustomerStateStore::Make(zero_shards).ok());

  StateStoreOptions bad_scorer = SmallStoreOptions();
  bad_scorer.scorer.window_span_days = 0;
  EXPECT_FALSE(CustomerStateStore::Make(bad_scorer).ok());
}

TEST(CustomerStateStore, ShardAssignmentIsStable) {
  auto store_a = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  auto store_b = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  for (CustomerId customer = 0; customer < 100; ++customer) {
    EXPECT_EQ(store_a.ShardOf(customer), store_b.ShardOf(customer));
    EXPECT_LT(store_a.ShardOf(customer), store_a.num_shards());
  }
}

TEST(CustomerStateStore, GetOrCreateCreatesOncePerCustomer) {
  auto store = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  const CustomerId customer = 7;
  const size_t shard = store.ShardOf(customer);
  store.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
    access.GetOrCreate(customer);
    access.GetOrCreate(customer);
    EXPECT_EQ(access.size(), 1u);
    EXPECT_EQ(access.CustomerAt(0), customer);
    EXPECT_EQ(access.At(0).customer(), customer);
    return 0;
  });
  EXPECT_EQ(store.NumCustomers(), 1u);
}

TEST(CustomerStateStore, ShardStateRoundTrips) {
  auto store = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  // Feed a couple of customers that land in (possibly) different shards.
  const std::vector<CustomerId> customers = {1, 2, 3, 4, 5};
  for (const CustomerId customer : customers) {
    store.WithShard(store.ShardOf(customer),
                    [&](CustomerStateStore::ShardAccessor& access) {
                      auto state = access.GetOrCreate(customer);
                      return state.Observe(10, {1, 2}).ok() ? 0 : 1;
                    });
  }

  auto restored = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  for (size_t shard = 0; shard < store.num_shards(); ++shard) {
    BinaryWriter writer;
    store.SaveShardState(shard, &writer);
    BinaryReader reader(writer.buffer());
    ASSERT_TRUE(restored.LoadShardState(shard, &reader).ok());
    EXPECT_TRUE(reader.AtEnd());
  }
  EXPECT_EQ(restored.NumCustomers(), customers.size());

  // Restored shards serialize to the same bytes as the originals.
  for (size_t shard = 0; shard < store.num_shards(); ++shard) {
    BinaryWriter original, copy;
    store.SaveShardState(shard, &original);
    restored.SaveShardState(shard, &copy);
    EXPECT_EQ(original.buffer(), copy.buffer()) << "shard " << shard;
  }
}

TEST(CustomerStateStore, LoadRejectsCustomerFromWrongShard) {
  auto store = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  const CustomerId customer = 11;
  const size_t home = store.ShardOf(customer);
  store.WithShard(home, [&](CustomerStateStore::ShardAccessor& access) {
    access.GetOrCreate(customer);
    return 0;
  });
  BinaryWriter writer;
  store.SaveShardState(home, &writer);

  // Loading the frame into a different shard is corruption.
  const size_t wrong = (home + 1) % store.num_shards();
  auto target = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  BinaryReader reader(writer.buffer());
  const Status status = target.LoadShardState(wrong, &reader);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
}

TEST(CustomerStateStore, GetOrCreateSurvivesThrowingCreation) {
  // Regression: GetOrCreate used to publish the shard-index entry before
  // the customer's storage slot existed; a throwing creation (column
  // growth) left a dangling index entry behind. Creation is now fully
  // rolled back on throw.
  auto store = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  const CustomerId victim = 7;
  const size_t shard = store.ShardOf(victim);
  CustomerId neighbour = victim + 1;
  while (store.ShardOf(neighbour) != shard) ++neighbour;
  store.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
    auto state = access.GetOrCreate(neighbour);
    return state.Observe(5, {1}).ok() ? 0 : 1;
  });

  FailpointConfig config;
  config.action = FailpointAction::kThrow;
  config.has_key = true;
  config.key = victim;
  FailpointRegistry::Global().Get("serve.state.create")->Arm(config);
  EXPECT_THROW(
      store.WithShard(shard,
                      [&](CustomerStateStore::ShardAccessor& access) {
                        access.GetOrCreate(victim);
                        return 0;
                      }),
      FailpointException);
  FailpointRegistry::Global().Get("serve.state.create")->Disarm();

  // The failed creation left no trace: the neighbour is intact and the
  // victim can be created cleanly afterwards.
  EXPECT_EQ(store.NumCustomers(), 1u);
  store.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
    EXPECT_EQ(access.size(), 1u);
    EXPECT_EQ(access.CustomerAt(0), neighbour);
    auto state = access.GetOrCreate(victim);
    return state.Observe(6, {1, 2}).ok() ? 0 : 1;
  });
  EXPECT_EQ(store.NumCustomers(), 2u);
}

TEST(CustomerStateStore, LoadShardStateIsAllOrNothing) {
  // Regression: a bad record mid-frame used to abort the load loop with the
  // earlier records already inserted, leaving a partially loaded shard.
  // Loads now stage into scratch storage and swap only on success.
  auto store = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  const size_t shard = store.ShardOf(1);
  std::vector<CustomerId> same_shard;
  for (CustomerId customer = 1; same_shard.size() < 4; ++customer) {
    if (store.ShardOf(customer) == shard) same_shard.push_back(customer);
  }
  for (const CustomerId customer : same_shard) {
    store.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
      auto state = access.GetOrCreate(customer);
      return state.Observe(10, {1, 2}).ok() ? 0 : 1;
    });
  }
  BinaryWriter writer;
  store.SaveShardState(shard, &writer);
  const std::string frame = writer.buffer();

  // Seed a target store with the full frame, then feed it a truncated
  // copy: the leading records parse, the tail does not. The failed load
  // must leave the previously loaded state untouched.
  auto target = CustomerStateStore::Make(SmallStoreOptions()).ValueOrDie();
  BinaryReader good(frame);
  ASSERT_TRUE(target.LoadShardState(shard, &good).ok());
  BinaryReader truncated(frame.substr(0, frame.size() - 3));
  EXPECT_FALSE(target.LoadShardState(shard, &truncated).ok());

  EXPECT_EQ(target.NumCustomers(), same_shard.size());
  BinaryWriter after;
  target.SaveShardState(shard, &after);
  EXPECT_EQ(after.buffer(), frame);
}

TEST(ScoringFleet, MakeValidatesOptions) {
  FleetOptions zero_shards = SmallFleetOptions();
  zero_shards.num_shards = 0;
  EXPECT_FALSE(ScoringFleet::Make(zero_shards, nullptr).ok());

  // Segment granularity requires a taxonomy.
  FleetOptions segment = SmallFleetOptions();
  segment.granularity = retail::Granularity::kSegment;
  EXPECT_FALSE(ScoringFleet::Make(segment, nullptr).ok());

  // Product granularity does not.
  EXPECT_TRUE(ScoringFleet::Make(SmallFleetOptions(), nullptr).ok());
}

TEST(ScoringFleet, IngestCountsReceiptsAndNewCustomers) {
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  std::vector<Receipt> batch;
  batch.push_back(MakeReceipt(1, 0, {10, 11}));
  batch.push_back(MakeReceipt(2, 0, {10}));
  batch.push_back(MakeReceipt(1, 3, {10, 11}));
  auto report = fleet.IngestBatch(batch).ValueOrDie();
  EXPECT_EQ(report.receipts_ingested, 3u);
  EXPECT_EQ(report.new_customers, 2u);
  EXPECT_EQ(fleet.NumCustomers(), 2u);

  // Second batch: same customers, no new ones.
  std::vector<Receipt> next;
  next.push_back(MakeReceipt(2, 8, {10}));
  report = fleet.IngestBatch(next).ValueOrDie();
  EXPECT_EQ(report.new_customers, 0u);
  EXPECT_EQ(fleet.NumCustomers(), 2u);
}

TEST(ScoringFleet, IngestQuarantinesInvalidCustomerAndStaleReceipt) {
  // Default quarantine mode: malformed receipts land in
  // BatchReport::rejected instead of failing the whole batch.
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  std::vector<Receipt> bad_id;
  bad_id.push_back(MakeReceipt(retail::kInvalidCustomer, 0, {1}));
  auto report = fleet.IngestBatch(bad_id).ValueOrDie();
  EXPECT_EQ(report.receipts_ingested, 0u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].customer, retail::kInvalidCustomer);
  EXPECT_EQ(report.rejected[0].batch_index, 0u);
  EXPECT_TRUE(report.rejected[0].reason.IsInvalidArgument());
  EXPECT_TRUE(report.poisoned.empty()) << "a bad receipt is not a bad shard";

  std::vector<Receipt> forward;
  forward.push_back(MakeReceipt(1, 50, {1}));
  ASSERT_TRUE(fleet.IngestBatch(forward).ok());
  // A receipt older than the customer's stream head violates chronology:
  // quarantined, with the good receipt in the same batch still ingested.
  std::vector<Receipt> stale;
  stale.push_back(MakeReceipt(1, 10, {1}));
  stale.push_back(MakeReceipt(1, 60, {1}));
  report = fleet.IngestBatch(stale).ValueOrDie();
  EXPECT_EQ(report.receipts_ingested, 1u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0].batch_index, 0u);
  EXPECT_EQ(report.rejected[0].day, 10);
  EXPECT_TRUE(report.rejected[0].reason.IsInvalidArgument());
}

TEST(ScoringFleet, QuarantinesReceiptsBeyondTheSnapshotCaps) {
  // Product granularity maps an item id straight to a symbol. An item at
  // 2^24, or a day past the 2^20-window horizon, would build state the
  // snapshot loader rejects; both are quarantined before any mutation.
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  const Day past_horizon = 30 * (Day{1} << 20);
  std::vector<Receipt> batch;
  batch.push_back(MakeReceipt(1, 0, {1}));
  batch.push_back(MakeReceipt(1, 10, {2, retail::ItemId{1} << 24}));
  batch.push_back(MakeReceipt(2, past_horizon, {1}));
  batch.push_back(MakeReceipt(2, 20, {1, 2}));
  const auto report = fleet.IngestBatch(batch).ValueOrDie();
  EXPECT_EQ(report.receipts_ingested, 2u);
  ASSERT_EQ(report.rejected.size(), 2u);
  EXPECT_EQ(report.rejected[0].batch_index, 1u);
  EXPECT_EQ(report.rejected[1].batch_index, 2u);
  for (const RejectedReceipt& rejected : report.rejected) {
    EXPECT_TRUE(rejected.reason.IsInvalidArgument());
  }

  // What was accepted round-trips and continues with identical bytes.
  const std::string snapshot = SnapshotOf(fleet);
  BinaryReader reader(snapshot);
  auto restored = ScoringFleet::Restore(&reader, nullptr).ValueOrDie();
  EXPECT_EQ(SnapshotOf(restored), snapshot);
  std::vector<Receipt> more;
  more.push_back(MakeReceipt(1, 100, {1}));
  more.push_back(MakeReceipt(2, 100, {3}));
  ASSERT_TRUE(fleet.IngestBatch(more).ok());
  ASSERT_TRUE(restored.IngestBatch(more).ok());
  EXPECT_EQ(SnapshotOf(restored), SnapshotOf(fleet));
}

TEST(ScoringFleet, IngestFailsHardWithQuarantineDisabled) {
  // quarantine_malformed = false restores the strict pre-quarantine
  // contract: any malformed receipt fails the batch. A rejected item is not
  // a shard fault, so it fails the call at once, without a retry; a sweep
  // day a customer's stream rejects follows the same rule.
  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.shard_retries");
  const uint64_t retries_before = retries->Value();
  FleetOptions options = SmallFleetOptions();
  options.quarantine_malformed = false;
  auto fleet = ScoringFleet::Make(options, nullptr).ValueOrDie();
  std::vector<Receipt> bad_id;
  bad_id.push_back(MakeReceipt(retail::kInvalidCustomer, 0, {1}));
  EXPECT_FALSE(fleet.IngestBatch(bad_id).ok());

  std::vector<Receipt> forward;
  forward.push_back(MakeReceipt(1, 50, {1}));
  ASSERT_TRUE(fleet.IngestBatch(forward).ok());
  std::vector<Receipt> stale;
  stale.push_back(MakeReceipt(1, 10, {1}));
  const auto report = fleet.IngestBatch(stale);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());

  const auto sweep = fleet.AdvanceAllTo(20);
  ASSERT_FALSE(sweep.ok());
  EXPECT_TRUE(sweep.status().IsInvalidArgument());
  EXPECT_EQ(retries->Value() - retries_before, 0u);
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_TRUE(fleet.ShardHealth(shard).ok()) << shard;
  }
}

TEST(ScoringFleet, SweepQuarantinesCustomersWhoseStreamRejectsTheDay) {
  // A sweep day a customer's stream rejects is that customer's item error,
  // not a shard fault: the customer is quarantined under the sweep day,
  // nothing is retried, and every shard keeps serving.
  obs::Counter* const retries = obs::MetricsRegistry::Global().GetCounter(
      "churnlab.serve.shard_retries");
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  std::vector<Receipt> batch;
  for (CustomerId customer = 1; customer <= 8; ++customer) {
    batch.push_back(MakeReceipt(customer, 100, {1, 2}));
  }
  ASSERT_EQ(fleet.IngestBatch(batch).ValueOrDie().receipts_ingested, 8u);
  const std::string before = SnapshotOf(fleet);
  const uint64_t retries_before = retries->Value();

  for (const Day day : {Day{50}, 30 * (Day{1} << 20)}) {
    const BatchReport report = fleet.AdvanceAllTo(day).ValueOrDie();
    EXPECT_TRUE(report.poisoned.empty()) << day;
    EXPECT_TRUE(report.alerts.empty()) << day;
    ASSERT_EQ(report.rejected.size(), 8u) << day;
    for (size_t i = 0; i < report.rejected.size(); ++i) {
      const RejectedReceipt& rejected = report.rejected[i];
      EXPECT_EQ(rejected.customer, i + 1);  // batch_index, then customer
      EXPECT_EQ(rejected.batch_index, 0u);
      EXPECT_EQ(rejected.day, day);
      EXPECT_TRUE(rejected.reason.IsInvalidArgument())
          << rejected.reason.ToString();
    }
  }
  EXPECT_EQ(retries->Value(), retries_before);
  EXPECT_EQ(SnapshotOf(fleet), before) << "a rejected day changes nothing";
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_TRUE(fleet.ShardHealth(shard).ok()) << shard;
  }

  for (Receipt& receipt : batch) receipt.day = 200;
  const BatchReport later = fleet.IngestBatch(batch).ValueOrDie();
  EXPECT_EQ(later.receipts_ingested, 8u);
  EXPECT_TRUE(later.rejected.empty());
}

TEST(ScoringFleet, RaisesLowStabilityAlertWhenBasketCollapses) {
  // Customer buys {1, 2, 3} every week for four 30-day windows, then keeps
  // visiting but buys only item 9: the habitual products disappear and
  // stability collapses below beta.
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  std::vector<Receipt> stream;
  for (Day day = 0; day < 120; day += 7) {
    stream.push_back(MakeReceipt(5, day, {1, 2, 3}));
  }
  for (Day day = 120; day < 240; day += 7) {
    stream.push_back(MakeReceipt(5, day, {9}));
  }
  auto report = fleet.IngestBatch(stream).ValueOrDie();
  auto tail = fleet.FinishAll().ValueOrDie();
  std::vector<FleetAlert> alerts = report.alerts;
  alerts.insert(alerts.end(), tail.alerts.begin(), tail.alerts.end());
  ASSERT_FALSE(alerts.empty());
  for (const FleetAlert& alert : alerts) {
    EXPECT_EQ(alert.customer, 5u);
  }
  bool saw_low = false;
  for (const FleetAlert& alert : alerts) {
    if (alert.alert.kind == core::StabilityAlert::Kind::kLowStability) {
      saw_low = true;
      EXPECT_LE(alert.alert.stability, 0.5);
    }
  }
  EXPECT_TRUE(saw_low);
}

TEST(ScoringFleet, FinishAllOnEmptyFleetIsANoOp) {
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
  auto report = fleet.FinishAll().ValueOrDie();
  EXPECT_TRUE(report.alerts.empty());
  EXPECT_EQ(fleet.NumCustomers(), 0u);
}

// --- snapshot robustness ---------------------------------------------------

ScoringFleet FleetWithSomeState() {
  auto fleet = ScoringFleet::Make(SmallFleetOptions(), nullptr).ValueOrDie();
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

TEST(FleetSnapshot, RoundTripsThroughBuffer) {
  ScoringFleet fleet = FleetWithSomeState();
  const std::string snapshot = SnapshotOf(fleet);
  BinaryReader reader(snapshot);
  auto restored = ScoringFleet::Restore(&reader, nullptr).ValueOrDie();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.NumCustomers(), fleet.NumCustomers());
  EXPECT_EQ(SnapshotOf(restored), snapshot);
}

TEST(FleetSnapshot, RestoreRejectsBadMagic) {
  std::string snapshot = SnapshotOf(FleetWithSomeState());
  snapshot[0] = 'X';
  BinaryReader reader(snapshot);
  const auto restored = ScoringFleet::Restore(&reader, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());
}

TEST(FleetSnapshot, RestoreRejectsTruncation) {
  const std::string snapshot = SnapshotOf(FleetWithSomeState());
  // Every strict prefix must fail — never crash, never succeed.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{10}, snapshot.size() / 2,
                     snapshot.size() - 1}) {
    BinaryReader reader(snapshot.substr(0, cut));
    EXPECT_FALSE(ScoringFleet::Restore(&reader, nullptr).ok())
        << "prefix of " << cut << " bytes";
  }
}

TEST(FleetSnapshot, RestoreDetectsCorruptedShardFrame) {
  const std::string snapshot = SnapshotOf(FleetWithSomeState());
  // Flip one byte in the back half (inside some shard frame's payload —
  // the header lives at the front). The CRC must catch it.
  std::string corrupted = snapshot;
  corrupted[corrupted.size() - 3] ^= 0x40;
  BinaryReader reader(corrupted);
  const auto restored = ScoringFleet::Restore(&reader, nullptr);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsIOError());
}

TEST(FleetSnapshot, RestoreRejectsTrailingGarbage) {
  std::string snapshot = SnapshotOf(FleetWithSomeState());
  snapshot += "extra";
  BinaryReader reader(snapshot);
  EXPECT_FALSE(ScoringFleet::Restore(&reader, nullptr).ok());
}

TEST(FleetSnapshot, RestoredFleetContinuesLikeTheOriginal) {
  ScoringFleet fleet = FleetWithSomeState();
  BinaryReader reader(SnapshotOf(fleet));
  auto restored = ScoringFleet::Restore(&reader, nullptr).ValueOrDie();

  std::vector<Receipt> more;
  for (CustomerId customer = 1; customer <= 8; ++customer) {
    more.push_back(MakeReceipt(customer, 200, {customer}));
  }
  auto original_report = fleet.IngestBatch(more).ValueOrDie();
  auto restored_report = restored.IngestBatch(more).ValueOrDie();
  ASSERT_EQ(original_report.alerts.size(), restored_report.alerts.size());
  EXPECT_EQ(SnapshotOf(fleet), SnapshotOf(restored));
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
