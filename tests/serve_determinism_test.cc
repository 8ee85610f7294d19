// Determinism guarantees of the serving subsystem, replaying a simulated
// population as a day-ordered stream:
//
//   1. Alerts and snapshots are byte-identical for any thread count.
//   2. Alerts are identical for any shard count.
//   3. Snapshot -> restore -> continue is bit-identical to uninterrupted
//      streaming (the tentpole guarantee of the snapshot format).
//   4. Fleet alerts match a per-customer replay through raw
//      core::StabilityMonitor instances (the fleet adds sharding and
//      batching, never different math).
//   5. A store's shard snapshot frame is the customer count followed by
//      id + StabilityMonitor::SaveState per customer in slot order, and
//      loading that frame continues like the raw monitors do, for the
//      alpha-power and EWMA kinds and for a clamped alpha-power total.

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/monitor.h"
#include "core/symbol_mapper.h"
#include "datagen/scenario.h"
#include "retail/dataset.h"
#include "serve/fleet.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

constexpr Day kBatchDays = 7;

const retail::Dataset& TestDataset() {
  static const retail::Dataset* dataset = [] {
    datagen::PaperScenarioConfig config;
    config.population.num_loyal = 30;
    config.population.num_defecting = 30;
    config.num_months = 20;
    config.seed = 99;
    return new retail::Dataset(
        datagen::MakePaperDataset(config).ValueOrDie());
  }();
  return *dataset;
}

// The dataset replayed as a production stream: day-ordered, with each
// customer's receipts kept chronological (AllReceipts is (customer, day)-
// sorted, so a stable sort by day preserves per-customer order).
const std::vector<Receipt>& ReplayStream() {
  static const std::vector<Receipt>* stream = [] {
    const std::span<const Receipt> all =
        TestDataset().store().AllReceipts();
    auto* replay = new std::vector<Receipt>(all.begin(), all.end());
    std::stable_sort(replay->begin(), replay->end(),
                     [](const Receipt& a, const Receipt& b) {
                       return a.day < b.day;
                     });
    return replay;
  }();
  return *stream;
}

FleetOptions TestOptions(size_t num_threads, size_t num_shards) {
  FleetOptions options;
  options.scorer.significance.alpha = 2.0;
  options.scorer.window_span_days = 2 * retail::kDaysPerMonth;
  options.policy.beta = 0.6;
  options.policy.drop_threshold = 0.3;
  options.policy.warmup_windows = 2;
  options.num_threads = num_threads;
  options.num_shards = num_shards;
  options.granularity = retail::Granularity::kSegment;
  return options;
}

// Canonical text form of an alert log, for byte-for-byte comparison.
std::string FormatAlerts(const std::vector<FleetAlert>& alerts) {
  std::string out;
  char line[160];
  for (const FleetAlert& alert : alerts) {
    std::snprintf(line, sizeof(line), "%llu@%zu w%d k%d s=%.17g d=%.17g\n",
                  static_cast<unsigned long long>(alert.customer),
                  alert.batch_index, alert.alert.window_index,
                  static_cast<int>(alert.alert.kind), alert.alert.stability,
                  alert.alert.drop);
    out += line;
  }
  return out;
}

std::string SnapshotOf(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

struct ReplayResult {
  std::string alert_log;
  std::string snapshot;
  size_t num_customers = 0;
};

// Replays the stream in `kBatchDays`-day batches. When `split_batch` >= 0,
// the fleet is snapshotted after that many batches, torn down, restored
// (with `resume_threads` workers), and the remainder replayed through the
// restored fleet — exercising the snapshot mid-stream.
ReplayResult Replay(size_t num_threads, size_t num_shards,
                    int split_batch = -1, size_t resume_threads = 0) {
  const std::vector<Receipt>& replay = ReplayStream();
  const FleetOptions options = TestOptions(num_threads, num_shards);
  auto fleet =
      ScoringFleet::Make(options, &TestDataset().taxonomy()).ValueOrDie();
  ReplayResult result;
  std::vector<FleetAlert> alerts;
  int batch_number = 0;
  for (size_t begin = 0; begin < replay.size();) {
    if (batch_number == split_batch) {
      // Tear down and resurrect the fleet from its snapshot mid-stream.
      const std::string snapshot = SnapshotOf(fleet);
      BinaryReader reader(snapshot);
      fleet = ScoringFleet::Restore(&reader, &TestDataset().taxonomy(),
                                    TestOptions(resume_threads, num_shards))
                  .ValueOrDie();
    }
    const Day batch_end = replay[begin].day + kBatchDays;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet
                      .IngestBatch(std::span<const Receipt>(
                          replay.data() + begin, end - begin))
                      .ValueOrDie();
    alerts.insert(alerts.end(), report.alerts.begin(), report.alerts.end());
    begin = end;
    ++batch_number;
  }
  auto tail = fleet.FinishAll().ValueOrDie();
  alerts.insert(alerts.end(), tail.alerts.begin(), tail.alerts.end());
  result.alert_log = FormatAlerts(alerts);
  result.snapshot = SnapshotOf(fleet);
  result.num_customers = fleet.NumCustomers();
  return result;
}

TEST(ServeDeterminism, ThreadCountNeverChangesAlertsOrSnapshot) {
  const ReplayResult baseline = Replay(/*num_threads=*/1, /*num_shards=*/16);
  EXPECT_FALSE(baseline.alert_log.empty());
  EXPECT_EQ(baseline.num_customers, 60u);
  for (const size_t threads : {size_t{4}, size_t{16}}) {
    const ReplayResult run = Replay(threads, /*num_shards=*/16);
    EXPECT_EQ(run.alert_log, baseline.alert_log) << threads << " threads";
    EXPECT_EQ(run.snapshot, baseline.snapshot) << threads << " threads";
  }
}

TEST(ServeDeterminism, ShardCountNeverChangesAlerts) {
  const ReplayResult baseline = Replay(/*num_threads=*/2, /*num_shards=*/1);
  for (const size_t shards : {size_t{4}, size_t{16}, size_t{64}}) {
    const ReplayResult run = Replay(/*num_threads=*/2, shards);
    EXPECT_EQ(run.alert_log, baseline.alert_log) << shards << " shards";
  }
}

TEST(ServeDeterminism, SnapshotRestoreContinueIsBitIdentical) {
  const ReplayResult uninterrupted =
      Replay(/*num_threads=*/4, /*num_shards=*/16);
  // Interrupt early, in the middle, and near the end of the stream; resume
  // with a different thread count to prove threads are a pure runtime
  // concern.
  for (const int split : {1, 20, 60}) {
    const ReplayResult resumed = Replay(/*num_threads=*/4, /*num_shards=*/16,
                                        split, /*resume_threads=*/2);
    EXPECT_EQ(resumed.alert_log, uninterrupted.alert_log)
        << "split at batch " << split;
    EXPECT_EQ(resumed.snapshot, uninterrupted.snapshot)
        << "split at batch " << split;
  }
}

// Alert key used for the fleet vs raw-monitor cross-check: FinishAll alerts
// carry batch_index 0, so compare (customer, window, kind, values) only.
using AlertKey = std::tuple<CustomerId, int32_t, int, double, double>;

std::vector<AlertKey> Keys(const std::vector<FleetAlert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const FleetAlert& alert : alerts) {
    keys.emplace_back(alert.customer, alert.alert.window_index,
                      static_cast<int>(alert.alert.kind),
                      alert.alert.stability, alert.alert.drop);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ServeDeterminism, FleetMatchesPerCustomerMonitorReplay) {
  const retail::Dataset& dataset = TestDataset();
  const FleetOptions options = TestOptions(/*num_threads=*/4,
                                           /*num_shards=*/16);

  // Fleet side: batched day-ordered replay.
  auto fleet =
      ScoringFleet::Make(options, &dataset.taxonomy()).ValueOrDie();
  std::vector<FleetAlert> fleet_alerts;
  const std::vector<Receipt>& replay = ReplayStream();
  for (size_t begin = 0; begin < replay.size();) {
    const Day batch_end = replay[begin].day + kBatchDays;
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    auto report = fleet
                      .IngestBatch(std::span<const Receipt>(
                          replay.data() + begin, end - begin))
                      .ValueOrDie();
    fleet_alerts.insert(fleet_alerts.end(), report.alerts.begin(),
                        report.alerts.end());
    begin = end;
  }
  auto tail = fleet.FinishAll().ValueOrDie();
  fleet_alerts.insert(fleet_alerts.end(), tail.alerts.begin(),
                      tail.alerts.end());

  // Reference side: one raw StabilityMonitor per customer, fed that
  // customer's history directly (same symbol mapping as the fleet: sorted,
  // deduplicated mapped items).
  auto mapper = core::SymbolMapper::Make(options.granularity,
                                         &dataset.taxonomy())
                    .ValueOrDie();
  std::vector<FleetAlert> reference_alerts;
  for (const CustomerId customer : dataset.store().Customers()) {
    auto monitor =
        core::StabilityMonitor::Make(options.scorer, options.policy)
            .ValueOrDie();
    std::vector<core::Symbol> symbols;
    const auto record = [&](std::vector<core::StabilityAlert> alerts) {
      for (core::StabilityAlert& alert : alerts) {
        reference_alerts.push_back(FleetAlert{customer, 0, alert});
      }
    };
    for (const Receipt& receipt : dataset.store().History(customer)) {
      symbols.clear();
      for (const retail::ItemId item : receipt.items) {
        symbols.push_back(mapper.Map(item));
      }
      std::sort(symbols.begin(), symbols.end());
      symbols.erase(std::unique(symbols.begin(), symbols.end()),
                    symbols.end());
      record(monitor.Observe(receipt.day, symbols).ValueOrDie());
    }
    record(monitor.Finish().ValueOrDie());
  }

  EXPECT_EQ(Keys(fleet_alerts), Keys(reference_alerts));
}

// One customer's alerts in canonical text form (see FormatAlerts).
std::string FormatCustomerAlerts(
    CustomerId customer, const std::vector<core::StabilityAlert>& alerts) {
  std::vector<FleetAlert> attributed;
  for (const core::StabilityAlert& alert : alerts) {
    attributed.push_back(FleetAlert{customer, 0, alert});
  }
  return FormatAlerts(attributed);
}

// Raw per-customer monitors plus the slot order a store must hold them in.
struct MonitorOracle {
  std::map<CustomerId, core::StabilityMonitor> monitors;
  std::vector<std::vector<CustomerId>> slots;  // per shard, creation order

  // The frame SaveShardState must write: count, then id + SaveState.
  std::string ShardFrame(size_t shard) const {
    BinaryWriter writer;
    writer.WriteVarint(slots[shard].size());
    for (const CustomerId customer : slots[shard]) {
      writer.WriteVarint(customer);
      monitors.at(customer).SaveState(&writer);
    }
    return writer.buffer();
  }
};

std::string StoreShardFrame(const CustomerStateStore& store, size_t shard) {
  BinaryWriter writer;
  store.SaveShardState(shard, &writer);
  return writer.buffer();
}

// Feeds the stream through a store and through raw monitors side by side
// under `significance`, and checks the frames and continuations agree.
void ExpectStoreFramesMatchMonitors(
    const core::SignificanceOptions& significance) {
  const retail::Dataset& dataset = TestDataset();
  FleetOptions fleet_options = TestOptions(/*num_threads=*/1,
                                           /*num_shards=*/4);
  fleet_options.scorer.significance = significance;
  StateStoreOptions options;
  options.scorer = fleet_options.scorer;
  options.policy = fleet_options.policy;
  options.num_shards = fleet_options.num_shards;
  auto store = CustomerStateStore::Make(options).ValueOrDie();
  const auto mapper = core::SymbolMapper::Make(fleet_options.granularity,
                                               &dataset.taxonomy())
                          .ValueOrDie();
  MonitorOracle oracle;
  oracle.slots.resize(store.num_shards());

  // Every third customer stops inside its first window before the frame
  // is taken; the rest stop ten months in.
  const Day first_window_end = options.scorer.window_span_days;
  const auto cut_day = [&](CustomerId customer) {
    return customer % 3 == 0 ? first_window_end / 2
                             : 10 * retail::kDaysPerMonth;
  };
  std::vector<core::Symbol> symbols;
  const auto feed = [&](CustomerStateStore* target, const Receipt& receipt) {
    symbols.clear();
    for (const retail::ItemId item : receipt.items) {
      symbols.push_back(mapper.Map(item));
    }
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()),
                  symbols.end());
    const size_t shard = target->ShardOf(receipt.customer);
    auto [it, fresh] = oracle.monitors.try_emplace(
        receipt.customer,
        core::StabilityMonitor::Make(options.scorer, options.policy)
            .ValueOrDie());
    if (fresh) oracle.slots[shard].push_back(receipt.customer);
    const std::string expected = FormatCustomerAlerts(
        receipt.customer,
        it->second.Observe(receipt.day, symbols).ValueOrDie());
    const std::string actual = target->WithShard(
        shard, [&](CustomerStateStore::ShardAccessor& access) {
          return FormatCustomerAlerts(
              receipt.customer, access.GetOrCreate(receipt.customer)
                                    .Observe(receipt.day, symbols)
                                    .ValueOrDie());
        });
    EXPECT_EQ(actual, expected) << "customer " << receipt.customer;
  };

  for (const Receipt& receipt : ReplayStream()) {
    if (receipt.day < cut_day(receipt.customer)) feed(&store, receipt);
  }
  size_t inside_first_window = 0;
  for (size_t shard = 0; shard < store.num_shards(); ++shard) {
    EXPECT_EQ(StoreShardFrame(store, shard), oracle.ShardFrame(shard))
        << "shard " << shard;
    store.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
      ASSERT_EQ(access.size(), oracle.slots[shard].size());
      for (size_t slot = 0; slot < access.size(); ++slot) {
        const CustomerId customer = oracle.slots[shard][slot];
        EXPECT_EQ(access.CustomerAt(slot), customer);
        const core::StabilityMonitor& monitor = oracle.monitors.at(customer);
        EXPECT_EQ(access.At(slot).last_stability(), monitor.last_stability())
            << "customer " << customer;
        if (monitor.windows_closed() == 0) {
          ++inside_first_window;
          EXPECT_EQ(access.At(slot).last_stability(), 1.0)
              << "customer " << customer;
        }
      }
    });
  }
  EXPECT_GT(inside_first_window, 0u);
  EXPECT_LT(inside_first_window, oracle.monitors.size());

  // Load the oracle's frames into a fresh store and continue both sides.
  auto loaded = CustomerStateStore::Make(options).ValueOrDie();
  for (size_t shard = 0; shard < loaded.num_shards(); ++shard) {
    BinaryReader reader(oracle.ShardFrame(shard));
    ASSERT_TRUE(loaded.LoadShardState(shard, &reader).ok())
        << "shard " << shard;
    EXPECT_TRUE(reader.AtEnd()) << "shard " << shard;
  }
  for (const Receipt& receipt : ReplayStream()) {
    if (receipt.day >= cut_day(receipt.customer)) feed(&loaded, receipt);
  }
  for (size_t shard = 0; shard < loaded.num_shards(); ++shard) {
    loaded.WithShard(shard, [&](CustomerStateStore::ShardAccessor& access) {
      for (size_t slot = 0; slot < access.size(); ++slot) {
        const CustomerId customer = access.CustomerAt(slot);
        EXPECT_EQ(
            FormatCustomerAlerts(customer,
                                 access.At(slot).Finish().ValueOrDie()),
            FormatCustomerAlerts(
                customer,
                oracle.monitors.at(customer).Finish().ValueOrDie()));
      }
    });
    EXPECT_EQ(StoreShardFrame(loaded, shard), oracle.ShardFrame(shard))
        << "shard " << shard;
  }
}

TEST(ServeDeterminism, StoreShardFramesAreMonitorSaveStateInSlotOrder) {
  // The default alpha-power kind; the EWMA kind; and an alpha-power total
  // clamped below the stream's 10 windows, which runs the histogram total.
  const core::SignificanceOptions alpha_power =
      TestOptions(/*num_threads=*/1, /*num_shards=*/4).scorer.significance;
  core::SignificanceOptions ewma = alpha_power;
  ewma.kind = core::SignificanceKind::kEwma;
  ewma.ewma_lambda = 0.6;
  core::SignificanceOptions clamped = alpha_power;
  clamped.max_abs_exponent = 3.0;
  for (const auto& [name, significance] :
       {std::pair{"alpha_power", alpha_power}, std::pair{"ewma", ewma},
        std::pair{"clamped", clamped}}) {
    SCOPED_TRACE(name);
    ExpectStoreFramesMatchMonitors(significance);
  }
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
