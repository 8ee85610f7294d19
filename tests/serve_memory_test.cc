// Memory-accounting invariants of the customer-state store and fleet:
// per-shard stats sum to the fleet total, accounting is monotone while
// customers accumulate state, and the invariants survive a snapshot round
// trip.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/state_store.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

FleetOptions MemFleetOptions() {
  FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  options.num_threads = 1;
  options.granularity = retail::Granularity::kProduct;
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

// One day-ordered batch: `count` customers, a few items each, enough days
// to close windows and grow the per-item counters.
std::vector<Receipt> MonthBatch(size_t count, Day base_day) {
  std::vector<Receipt> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const CustomerId customer = static_cast<CustomerId>(i + 1);
    batch.push_back(MakeReceipt(
        customer, base_day,
        {static_cast<retail::ItemId>(1 + i % 11),
         static_cast<retail::ItemId>(50 + i % 5), 200}));
  }
  return batch;
}

void ExpectStatsEqual(const StateMemoryStats& a, const StateMemoryStats& b,
                      const char* what) {
  EXPECT_EQ(a.customers, b.customers) << what;
  EXPECT_EQ(a.scalar_bytes, b.scalar_bytes) << what;
  EXPECT_EQ(a.block_bytes, b.block_bytes) << what;
  EXPECT_EQ(a.arena_reserved_bytes, b.arena_reserved_bytes) << what;
  EXPECT_EQ(a.index_bytes, b.index_bytes) << what;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << what;
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
}

TEST(ServeMemory, SumOfShardsEqualsStoreTotal) {
  StateStoreOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  auto store = CustomerStateStore::Make(options).ValueOrDie();
  for (CustomerId customer = 1; customer <= 64; ++customer) {
    store.WithShard(store.ShardOf(customer),
                    [&](CustomerStateStore::ShardAccessor& access) {
                      auto state = access.GetOrCreate(customer);
                      for (Day day = 0; day < 120; day += 10) {
                        EXPECT_TRUE(
                            state.Observe(day, {1, customer % 7}).ok());
                      }
                      return 0;
                    });
  }

  StateMemoryStats sum;
  for (size_t shard = 0; shard < store.num_shards(); ++shard) {
    const StateMemoryStats stats = store.ShardMemoryUsage(shard);
    EXPECT_EQ(stats.total_bytes,
              stats.scalar_bytes + stats.index_bytes + stats.shared_bytes +
                  std::max(stats.block_bytes, stats.arena_reserved_bytes))
        << "shard " << shard;
    sum += stats;
  }
  ExpectStatsEqual(sum, store.MemoryUsage(), "store total");
  EXPECT_EQ(sum.customers, store.NumCustomers());
  EXPECT_GT(sum.total_bytes, 0u);
  EXPECT_GE(sum.arena_reserved_bytes, sum.block_bytes);
  EXPECT_GT(sum.shared_bytes, 0u);
}

TEST(ServeMemory, FleetTotalIsMonotoneDuringIngestAndPublishesGauge) {
  auto fleet = ScoringFleet::Make(MemFleetOptions(), nullptr).ValueOrDie();
  size_t last_total = 0;
  size_t last_customers = 0;
  for (int month = 0; month < 4; ++month) {
    const size_t count = 50 * (month + 1);
    ASSERT_TRUE(fleet.IngestBatch(MonthBatch(count, month * 30)).ok());
    const StateMemoryStats stats = fleet.MemoryUsage();
    EXPECT_EQ(stats.customers, fleet.NumCustomers());
    EXPECT_GE(stats.customers, last_customers);
    EXPECT_GE(stats.total_bytes, last_total) << "month " << month;
    last_total = stats.total_bytes;
    last_customers = stats.customers;

    static obs::Gauge* const bytes_total =
        obs::MetricsRegistry::Global().GetGauge("churnlab.serve.bytes_total");
    EXPECT_EQ(bytes_total->Value(), static_cast<double>(stats.total_bytes));
  }
}

TEST(ServeMemory, AccountingSurvivesSnapshotRestoreRoundTrip) {
  auto fleet = ScoringFleet::Make(MemFleetOptions(), nullptr).ValueOrDie();
  for (int month = 0; month < 3; ++month) {
    ASSERT_TRUE(fleet.IngestBatch(MonthBatch(120, month * 30)).ok());
  }
  BinaryWriter writer;
  ASSERT_TRUE(fleet.SaveSnapshot(&writer).ok());
  BinaryReader reader(writer.buffer());
  auto restored = ScoringFleet::Restore(&reader, nullptr).ValueOrDie();

  const StateMemoryStats before = fleet.MemoryUsage();
  const StateMemoryStats after = restored.MemoryUsage();
  EXPECT_EQ(after.customers, before.customers);
  EXPECT_GT(after.total_bytes, 0u);
  // The restored store satisfies the same accounting identity. (The max
  // picks arena_reserved on every shard, since arena_reserved >= block, so
  // the identity survives summation over shards.)
  EXPECT_EQ(after.total_bytes,
            after.scalar_bytes + after.index_bytes + after.shared_bytes +
                std::max(after.block_bytes, after.arena_reserved_bytes));
  // Block bytes are class-rounded, so the same logical state costs the
  // same live bytes whether grown incrementally or loaded in one shot.
  EXPECT_EQ(after.block_bytes, before.block_bytes);
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
