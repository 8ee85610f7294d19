#include "serve/fleet.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "obs/fault_obs.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/structured_log.h"
#include "obs/trace.h"

namespace churnlab {
namespace serve {

namespace {

constexpr char kSnapshotMagic[] = "CHLFLEET";
/// Append-mode generation files: a sequence of [magic, varint payload size,
/// varint CRC32, payload] frames where each payload is one full bare
/// snapshot (docs/ROBUSTNESS.md §Snapshot recovery).
constexpr char kGenerationMagic[] = "CHLFGENS";
constexpr size_t kSnapshotMagicSize = 8;
constexpr uint64_t kSnapshotVersion = 1;

struct ServeMetrics {
  obs::Counter* receipts_ingested;
  obs::Counter* alerts_raised;
  obs::Counter* batches_ingested;
  obs::Counter* rejected_receipts;
  obs::Counter* shard_retries;
  obs::Counter* poisoned_shards;
  obs::Counter* snapshot_fallbacks;
  obs::Gauge* customers;
  obs::Histogram* ingest_batch_us;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return ServeMetrics{
        registry.GetCounter("churnlab.serve.receipts_ingested"),
        registry.GetCounter("churnlab.serve.alerts_raised"),
        registry.GetCounter("churnlab.serve.batches_ingested"),
        registry.GetCounter("churnlab.serve.rejected_receipts"),
        registry.GetCounter("churnlab.serve.shard_retries"),
        registry.GetCounter("churnlab.serve.poisoned_shards"),
        registry.GetCounter("churnlab.serve.snapshot_fallbacks"),
        registry.GetGauge("churnlab.serve.customers"),
        registry.GetHistogram("churnlab.serve.ingest_batch_us",
                              obs::HistogramOptions::ExponentialLatency()),
    };
  }();
  return metrics;
}

/// Canonical alert order: batch position first (0 for whole-fleet sweeps),
/// then customer, then the alert's own (window, kind). Independent of both
/// thread count and shard count.
bool AlertLess(const FleetAlert& a, const FleetAlert& b) {
  return std::tie(a.batch_index, a.customer, a.alert.window_index,
                  a.alert.kind) < std::tie(b.batch_index, b.customer,
                                           b.alert.window_index,
                                           b.alert.kind);
}

bool RejectedLess(const RejectedReceipt& a, const RejectedReceipt& b) {
  return std::tie(a.batch_index, a.customer) <
         std::tie(b.batch_index, b.customer);
}

constexpr size_t kUnsetCount = ~size_t{0};

/// Per-shard scratch for one fleet operation. Mutated only by the shard's
/// own task; survives across retry attempts, so `progress` lets a retried
/// task resume after the last fully-processed item instead of
/// double-ingesting.
struct ShardOutput {
  Status status = Status::OK();
  /// Set by Reject with quarantine off; fails the operation, unretried.
  Status item_error = Status::OK();
  std::vector<FleetAlert> alerts;
  std::vector<RejectedReceipt> rejected;
  size_t receipts = 0;
  size_t new_customers = 0;
  /// Retry attempts burned by this shard's task.
  uint64_t retries = 0;
  /// Items of this shard's work list fully processed (ingested, rejected,
  /// or swept) so far.
  size_t progress = 0;
  /// Shard population before the first attempt touched it.
  size_t customers_before = kUnsetCount;
};

/// Settles an item whose own input is rejected (an invalid customer id, or
/// a day the customer's stream rejects): with quarantine on it is recorded
/// and the shard goes on; with it off its error fails the operation and
/// the shard stops. Returns whether the shard goes on.
bool Reject(bool quarantine, RejectedReceipt rejected, ShardOutput* out) {
  if (!quarantine) {
    out->item_error = std::move(rejected.reason);
    return false;
  }
  out->rejected.push_back(std::move(rejected));
  return true;
}

/// The shard step of a whole-fleet sweep: `op` on every customer of the
/// shard, in slot order. A customer whose stream rejects the sweep is
/// rejected with batch_index 0 under the sweep's `day`.
template <typename PerCustomerOp>
auto SweepStep(bool quarantine, retail::Day day, PerCustomerOp op) {
  return [=](size_t, CustomerStateStore::ShardAccessor& access,
             ShardOutput& out) -> Status {
    for (; out.progress < access.size(); ++out.progress) {
      CustomerStateStore::CustomerRef state = access.At(out.progress);
      Result<std::vector<core::StabilityAlert>> closed = op(state);
      if (!closed.ok()) {
        if (Reject(quarantine, {state.customer(), 0, day, closed.status()},
                   &out)) {
          continue;
        }
        break;
      }
      for (core::StabilityAlert& alert : *closed) {
        out.alerts.push_back(FleetAlert{state.customer(), 0, alert});
      }
    }
    return Status::OK();
  };
}

void WriteScorerOptions(const core::OnlineStabilityScorer::Options& options,
                        BinaryWriter* writer) {
  writer->WriteVarint(static_cast<uint64_t>(options.significance.kind));
  writer->WriteDouble(options.significance.alpha);
  writer->WriteDouble(options.significance.max_abs_exponent);
  writer->WriteDouble(options.significance.ewma_lambda);
  writer->WriteSignedVarint(options.window_span_days);
  writer->WriteSignedVarint(options.origin_day);
}

Status ReadScorerOptions(BinaryReader* reader,
                         core::OnlineStabilityScorer::Options* options) {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t kind, reader->ReadVarint());
  if (kind > static_cast<uint64_t>(core::SignificanceKind::kEwma)) {
    return Status::IOError("snapshot holds an unknown significance kind");
  }
  options->significance.kind = static_cast<core::SignificanceKind>(kind);
  CHURNLAB_ASSIGN_OR_RETURN(options->significance.alpha,
                            reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(options->significance.max_abs_exponent,
                            reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(options->significance.ewma_lambda,
                            reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t span, reader->ReadSignedVarint());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t origin,
                            reader->ReadSignedVarint());
  options->window_span_days = static_cast<retail::Day>(span);
  options->origin_day = static_cast<retail::Day>(origin);
  return Status::OK();
}

void WritePolicy(const core::MonitorPolicy& policy, BinaryWriter* writer) {
  writer->WriteDouble(policy.beta);
  writer->WriteSignedVarint(policy.consecutive_windows);
  writer->WriteDouble(policy.drop_threshold);
  writer->WriteSignedVarint(policy.warmup_windows);
}

Status ReadPolicy(BinaryReader* reader, core::MonitorPolicy* policy) {
  CHURNLAB_ASSIGN_OR_RETURN(policy->beta, reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t consecutive,
                            reader->ReadSignedVarint());
  CHURNLAB_ASSIGN_OR_RETURN(policy->drop_threshold, reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t warmup,
                            reader->ReadSignedVarint());
  policy->consecutive_windows = static_cast<int32_t>(consecutive);
  policy->warmup_windows = static_cast<int32_t>(warmup);
  return Status::OK();
}

}  // namespace

namespace {

/// Flight-recorder sites instrumenting the fleet's hot paths. Interned
/// once; recording is a no-op while the recorder is disarmed.
uint32_t IngestBatchSite() {
  static const uint32_t kSite =
      obs::FlightRecorder::RegisterSite("serve.ingest_batch");
  return kSite;
}

uint32_t ShardTaskSite() {
  static const uint32_t kSite =
      obs::FlightRecorder::RegisterSite("serve.shard.task");
  return kSite;
}

}  // namespace

ScoringFleet::ScoringFleet(FleetOptions options, CustomerStateStore store,
                           core::SymbolMapper mapper)
    : options_(std::move(options)),
      store_(std::move(store)),
      mapper_(std::move(mapper)),
      shard_health_(store_.num_shards()),
      shard_stats_(store_.num_shards()),
      shard_latency_(store_.num_shards(), nullptr),
      shard_gauges_(store_.num_shards()) {}

Result<ScoringFleet> ScoringFleet::Make(FleetOptions options,
                                        const retail::Taxonomy* taxonomy) {
  obs::InstallFaultTelemetry();
  if (options.num_threads == 0) options.num_threads = 1;
  CHURNLAB_ASSIGN_OR_RETURN(
      core::SymbolMapper mapper,
      core::SymbolMapper::Make(options.granularity, taxonomy));
  StateStoreOptions store_options;
  store_options.scorer = options.scorer;
  store_options.policy = options.policy;
  store_options.num_shards = options.num_shards;
  CHURNLAB_ASSIGN_OR_RETURN(CustomerStateStore store,
                            CustomerStateStore::Make(store_options));
  return ScoringFleet(std::move(options), std::move(store),
                      std::move(mapper));
}

void ScoringFleet::MapSymbols(const retail::Receipt& receipt,
                              std::vector<core::Symbol>* scratch) const {
  scratch->clear();
  scratch->reserve(receipt.items.size());
  for (const retail::ItemId item : receipt.items) {
    scratch->push_back(mapper_.Map(item));
  }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
}

template <typename Step>
Result<BatchReport> ScoringFleet::RunShards(
    std::span<const retail::Receipt> receipts,
    const std::vector<std::vector<size_t>>* by_shard, Step&& step,
    size_t* failed_index) {
  const ServeMetrics& metrics = Metrics();
  const size_t num_shards = store_.num_shards();
  std::vector<ShardOutput> outputs(num_shards);
  const auto run_shard = [&](size_t shard) {
    ShardOutput& out = outputs[shard];
    obs::FlightSpan flight(ShardTaskSite(), shard);
    // Per-shard ingest latency histogram, interned lazily by the shard's own
    // task (at most one task per shard is in flight, so the slot never
    // races). Sweeps are not timed.
    if (by_shard != nullptr && obs::DetailedTimingEnabled() &&
        shard_latency_[shard] == nullptr) {
      shard_latency_[shard] = obs::MetricsRegistry::Global().GetHistogram(
          obs::LabeledMetricName("churnlab.serve.shard_ingest_us",
                                 {{"shard", std::to_string(shard)}}));
    }
    obs::ScopedLatency shard_latency(by_shard != nullptr ? shard_latency_[shard]
                                                         : nullptr);
    const auto attempt = [&]() -> Status {
      CHURNLAB_FAILPOINT_KEYED("serve.shard.task", shard);
      return store_.WithShard(
          shard, [&](CustomerStateStore::ShardAccessor& access) -> Status {
            if (out.customers_before == kUnsetCount) {
              out.customers_before = access.size();
            }
            const Status status = step(shard, access, out);
            out.new_customers = access.size() - out.customers_before;
            return status;
          });
    };
    // The budget is per stuck item: an attempt that got further than the
    // last failed one starts it afresh, so a long work list (a whole journal
    // replay) rides out sparse faults as a short batch does.
    size_t reached = out.progress;
    out.status = RetryWithBackoff(
        options_.shard_retry, attempt,
        [&metrics, &out](int, const Status&) {
          metrics.shard_retries->Increment();
          ++out.retries;
        },
        [&out, &reached] {
          if (out.progress == reached) return false;
          reached = out.progress;
          return true;
        });
    if (out.status.ok()) out.status = std::move(out.item_error);
  };

  // Ingest runs only the shards it routed receipts to; a sweep runs all.
  const size_t num_threads = std::min(options_.num_threads, num_shards);
  if (num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }
  for (size_t shard = 0; shard < num_shards; ++shard) {
    if (!shard_health_[shard].ok() ||
        (by_shard != nullptr && (*by_shard)[shard].empty())) {
      continue;
    }
    if (num_threads > 1) {
      pool_->Submit([&run_shard, shard] { run_shard(shard); });
    } else {
      run_shard(shard);
    }
  }
  if (num_threads > 1) pool_->WaitIdle();

  if (!options_.quarantine_malformed) {
    // Retries ran out, or an item failed: fail the call with the failure at
    // the lowest batch index (a sweep's are all 0: lowest shard first), so
    // the reported error is deterministic.
    size_t failed = num_shards;
    size_t lowest = 0;
    for (size_t shard = 0; shard < num_shards; ++shard) {
      const ShardOutput& out = outputs[shard];
      if (!shard_health_[shard].ok() || out.status.ok()) continue;
      size_t index = 0;
      if (by_shard != nullptr) {
        const std::vector<size_t>& indices = (*by_shard)[shard];
        index = indices[std::min(out.progress, indices.size() - 1)];
      }
      if (failed == num_shards || index < lowest) {
        failed = shard;
        lowest = index;
      }
    }
    if (failed < num_shards) {
      if (failed_index != nullptr) *failed_index = lowest;
      return std::move(outputs[failed].status);
    }
  }

  BatchReport report;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardOutput& out = outputs[shard];
    ShardStats& stats = shard_stats_[shard];
    const size_t routed = by_shard != nullptr ? (*by_shard)[shard].size() : 0;
    if (by_shard != nullptr) stats.last_batch_receipts = routed;
    if (shard_health_[shard].ok() && !out.status.ok()) {
      // Retries ran out (quarantine is on, or the call failed above):
      // poison only this shard.
      shard_health_[shard] = out.status;
      metrics.poisoned_shards->Increment();
    }
    if (!shard_health_[shard].ok()) {
      // Poisoned by this or an earlier operation: quarantine the receipts
      // the shard did not process (all of them if it never ran).
      report.poisoned.push_back(PoisonedShard{shard, shard_health_[shard]});
      for (size_t i = out.progress; i < routed; ++i) {
        const size_t batch_index = (*by_shard)[shard][i];
        const retail::Receipt& receipt = receipts[batch_index];
        out.rejected.push_back(RejectedReceipt{
            receipt.customer, batch_index, receipt.day,
            shard_health_[shard].WithContext("shard poisoned")});
      }
    }
    stats.receipts += out.receipts;
    stats.rejected += out.rejected.size();
    stats.alerts += out.alerts.size();
    stats.retries += out.retries;
    report.receipts_ingested += out.receipts;
    report.new_customers += out.new_customers;
    report.alerts.insert(report.alerts.end(),
                         std::make_move_iterator(out.alerts.begin()),
                         std::make_move_iterator(out.alerts.end()));
    report.rejected.insert(report.rejected.end(),
                           std::make_move_iterator(out.rejected.begin()),
                           std::make_move_iterator(out.rejected.end()));
  }
  std::sort(report.alerts.begin(), report.alerts.end(), AlertLess);
  std::sort(report.rejected.begin(), report.rejected.end(), RejectedLess);
  metrics.alerts_raised->Increment(report.alerts.size());
  PublishShardTelemetry();
  return report;
}

Result<BatchReport> ScoringFleet::IngestBatch(
    std::span<const retail::Receipt> receipts) {
  return Ingest(receipts, nullptr);
}

Result<BatchReport> ScoringFleet::Ingest(
    std::span<const retail::Receipt> receipts, size_t* failed_index) {
  CHURNLAB_SPAN("serve.ingest_batch");
  CHURNLAB_FAILPOINT("serve.ingest.batch");
  const ServeMetrics& metrics = Metrics();
  obs::ScopedLatency latency(metrics.ingest_batch_us);

  // Partition by shard, preserving batch order within each shard so every
  // customer's receipts stay chronological. Sized exactly, so the
  // partition holds one index per receipt.
  const size_t num_shards = store_.num_shards();
  std::vector<size_t> routed(num_shards, 0);
  for (const retail::Receipt& receipt : receipts) {
    ++routed[store_.ShardOf(receipt.customer)];
  }
  std::vector<std::vector<size_t>> by_shard(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    by_shard[shard].reserve(routed[shard]);
  }
  for (size_t i = 0; i < receipts.size(); ++i) {
    by_shard[store_.ShardOf(receipts[i].customer)].push_back(i);
  }

  // Processes the shard's receipts from out.progress on. A failpoint for a
  // receipt fires before that receipt mutates any state, so a retried
  // attempt resumes cleanly; quarantined receipts advance progress like
  // ingested ones.
  const auto ingest = [&](size_t shard,
                          CustomerStateStore::ShardAccessor& access,
                          ShardOutput& out) -> Status {
    const std::vector<size_t>& indices = by_shard[shard];
    std::vector<core::Symbol> symbols;
    for (; out.progress < indices.size(); ++out.progress) {
      const size_t batch_index = indices[out.progress];
      const retail::Receipt& receipt = receipts[batch_index];
      if (receipt.customer == retail::kInvalidCustomer) {
        if (Reject(options_.quarantine_malformed,
                   {receipt.customer, batch_index, receipt.day,
                    Status::InvalidArgument(
                        "batch receipt has an invalid customer id")},
                   &out)) {
          continue;
        }
        break;
      }
      CHURNLAB_FAILPOINT_KEYED("serve.ingest.receipt", receipt.customer);
      MapSymbols(receipt, &symbols);
      CustomerStateStore::CustomerRef state =
          access.GetOrCreate(receipt.customer);
      Result<std::vector<core::StabilityAlert>> closed =
          state.Observe(receipt.day, symbols);
      if (!closed.ok()) {
        if (Reject(options_.quarantine_malformed,
                   {receipt.customer, batch_index, receipt.day,
                    closed.status()},
                   &out)) {
          continue;
        }
        break;
      }
      for (core::StabilityAlert& alert : *closed) {
        out.alerts.push_back(FleetAlert{receipt.customer, batch_index, alert});
      }
      ++out.receipts;
    }
    return Status::OK();
  };
  CHURNLAB_ASSIGN_OR_RETURN(BatchReport report,
                            RunShards(receipts, &by_shard, ingest,
                                      failed_index));

  metrics.batches_ingested->Increment();
  metrics.receipts_ingested->Increment(report.receipts_ingested);
  metrics.rejected_receipts->Increment(report.rejected.size());
  metrics.customers->Set(static_cast<double>(store_.NumCustomers()));
  obs::FlightRecorder::Record(IngestBatchSite(), receipts.size());
  return report;
}

FleetHealth ScoringFleet::HealthReport() const {
  FleetHealth health;
  const size_t num_shards = store_.num_shards();
  health.shards.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardHealthStats entry;
    entry.shard = shard;
    entry.status = shard_health_[shard];
    const ShardStats& stats = shard_stats_[shard];
    entry.receipts = stats.receipts;
    entry.rejected = stats.rejected;
    entry.alerts = stats.alerts;
    entry.retries = stats.retries;
    entry.last_batch_receipts = stats.last_batch_receipts;
    entry.customers = store_.ShardCustomers(shard);
    if (shard_latency_[shard] != nullptr) {
      entry.task_latency_us = shard_latency_[shard]->Snapshot();
    }
    if (!entry.status.ok()) ++health.poisoned_shards;
    health.receipts_total += entry.receipts;
    health.customers_total += entry.customers;
    health.shards.push_back(std::move(entry));
  }
  health.queue_depth = pool_ != nullptr ? pool_->QueueDepth() : 0;
  return health;
}

const ScoringFleet::ShardGauges& ScoringFleet::ShardGaugesFor(
    size_t shard) const {
  ShardGauges& gauges = shard_gauges_[shard];
  if (gauges.receipts != nullptr) return gauges;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string label = std::to_string(shard);
  const auto gauge = [&](std::string_view base) {
    return registry.GetGauge(
        obs::LabeledMetricName(base, {{"shard", label}}));
  };
  gauges.receipts = gauge("churnlab.serve.shard_receipts");
  gauges.rejected = gauge("churnlab.serve.shard_rejected");
  gauges.alerts = gauge("churnlab.serve.shard_alerts");
  gauges.retries = gauge("churnlab.serve.shard_retries");
  gauges.last_batch_receipts =
      gauge("churnlab.serve.shard_last_batch_receipts");
  gauges.poisoned = gauge("churnlab.serve.shard_poisoned");
  gauges.customers = gauge("churnlab.serve.shard_customers");
  gauges.bytes = gauge("churnlab.serve.bytes");
  return gauges;
}

void ScoringFleet::PublishShardTelemetry() {
  // Gated like the other detailed instrumentation: default runs must not
  // grow the global registry by O(shards).
  if (!obs::DetailedTimingEnabled()) return;
  for (size_t shard = 0; shard < store_.num_shards(); ++shard) {
    const ShardGauges& gauges = ShardGaugesFor(shard);
    const ShardStats& stats = shard_stats_[shard];
    gauges.receipts->Set(static_cast<double>(stats.receipts));
    gauges.rejected->Set(static_cast<double>(stats.rejected));
    gauges.alerts->Set(static_cast<double>(stats.alerts));
    gauges.retries->Set(static_cast<double>(stats.retries));
    gauges.last_batch_receipts->Set(
        static_cast<double>(stats.last_batch_receipts));
    gauges.poisoned->Set(shard_health_[shard].ok() ? 0.0 : 1.0);
    gauges.customers->Set(static_cast<double>(store_.ShardCustomers(shard)));
  }
  static obs::Gauge* const queue_depth =
      obs::MetricsRegistry::Global().GetGauge("churnlab.serve.queue_depth");
  queue_depth->Set(
      static_cast<double>(pool_ != nullptr ? pool_->QueueDepth() : 0));
}

StateMemoryStats ScoringFleet::MemoryUsage() const {
  StateMemoryStats total;
  const bool detailed = obs::DetailedTimingEnabled();
  for (size_t shard = 0; shard < store_.num_shards(); ++shard) {
    const StateMemoryStats stats = store_.ShardMemoryUsage(shard);
    if (detailed) {
      ShardGaugesFor(shard).bytes->Set(
          static_cast<double>(stats.total_bytes));
    }
    total += stats;
  }
  static obs::Gauge* const bytes_total =
      obs::MetricsRegistry::Global().GetGauge("churnlab.serve.bytes_total");
  bytes_total->Set(static_cast<double>(total.total_bytes));
  return total;
}

Result<BatchReport> ScoringFleet::AdvanceAllTo(retail::Day day) {
  CHURNLAB_SPAN("serve.advance_all");
  return RunShards({}, nullptr,
                   SweepStep(options_.quarantine_malformed, day,
                             [day](CustomerStateStore::CustomerRef& state) {
                               return state.AdvanceTo(day);
                             }));
}

Result<BatchReport> ScoringFleet::FinishAll() {
  CHURNLAB_SPAN("serve.finish_all");
  return RunShards({}, nullptr,
                   SweepStep(options_.quarantine_malformed, 0,
                             [](CustomerStateStore::CustomerRef& state) {
                               return state.Finish();
                             }));
}

Status ScoringFleet::SaveSnapshot(BinaryWriter* writer) const {
  CHURNLAB_SPAN("serve.save_snapshot");
  static Failpoint* const write_frame_failpoint =
      FailpointRegistry::Global().Get("serve.snapshot.write_frame");
  writer->WriteBytes(kSnapshotMagic, kSnapshotMagicSize);
  writer->WriteVarint(kSnapshotVersion);
  WriteScorerOptions(options_.scorer, writer);
  WritePolicy(options_.policy, writer);
  // num_threads is deliberately NOT serialized: it is a pure runtime
  // concern, and the snapshot bytes must be identical for any thread count.
  writer->WriteVarint(options_.num_shards);
  writer->WriteVarint(static_cast<uint64_t>(options_.granularity));
  for (size_t shard = 0; shard < store_.num_shards(); ++shard) {
    BinaryWriter frame;
    store_.SaveShardState(shard, &frame);
    const std::string* payload = &frame.buffer();
    writer->WriteVarint(payload->size());
    writer->WriteVarint(Crc32(payload->data(), payload->size()));
    // The failpoint corrupts the payload *after* the CRC is computed from
    // the pristine bytes, modelling a torn write Restore must detect.
    std::string corrupted;
    if (write_frame_failpoint->armed()) {
      corrupted = *payload;
      CHURNLAB_RETURN_NOT_OK(
          write_frame_failpoint->CorruptBytes(&corrupted, shard));
      payload = &corrupted;
    }
    writer->WriteBytes(payload->data(), payload->size());
  }
  return Status::OK();
}

Status ScoringFleet::SaveSnapshotToFile(const std::string& path) const {
  return RetryWithBackoff(options_.shard_retry, [&]() -> Status {
    BinaryWriter writer;
    CHURNLAB_RETURN_NOT_OK(SaveSnapshot(&writer));
    return writer.SaveToFile(path);
  });
}

Status ScoringFleet::AppendSnapshotToFile(const std::string& path) const {
  return AppendSnapshotGeneration(path).status();
}

Result<SnapshotRef> ScoringFleet::AppendSnapshotGeneration(
    const std::string& path) const {
  SnapshotRef ref;
  const Status written =
      RetryWithBackoff(options_.shard_retry, [&]() -> Status {
        BinaryWriter snapshot;
        CHURNLAB_RETURN_NOT_OK(SaveSnapshot(&snapshot));
        const std::string& payload = snapshot.buffer();
        ref.kind = SnapshotRef::Kind::kGeneration;
        ref.size = payload.size();
        ref.crc = Crc32(payload.data(), payload.size());
        BinaryWriter generation;
        generation.WriteBytes(kGenerationMagic, kSnapshotMagicSize);
        generation.WriteVarint(payload.size());
        generation.WriteVarint(ref.crc);
        generation.WriteBytes(payload.data(), payload.size());
        return generation.AppendToFile(path);
      });
  if (!written.ok()) return written;
  return ref;
}

Result<ScoringFleet> ScoringFleet::Restore(BinaryReader* reader,
                                           const retail::Taxonomy* taxonomy,
                                           const FleetOptions& runtime) {
  CHURNLAB_SPAN("serve.restore_snapshot");
  static Failpoint* const read_frame_failpoint =
      FailpointRegistry::Global().Get("serve.snapshot.read_frame");
  CHURNLAB_ASSIGN_OR_RETURN(const std::string magic,
                            reader->ReadBytes(kSnapshotMagicSize));
  if (magic != std::string_view(kSnapshotMagic, kSnapshotMagicSize)) {
    return Status::IOError("not a fleet snapshot (bad magic)");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t version, reader->ReadVarint());
  if (version != kSnapshotVersion) {
    return Status::IOError("unsupported fleet snapshot version");
  }
  // Runtime options come from the caller; everything else from the header.
  FleetOptions options;
  options.num_threads = runtime.num_threads;
  options.quarantine_malformed = runtime.quarantine_malformed;
  options.shard_retry = runtime.shard_retry;
  CHURNLAB_RETURN_NOT_OK(ReadScorerOptions(reader, &options.scorer));
  CHURNLAB_RETURN_NOT_OK(ReadPolicy(reader, &options.policy));
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_shards, reader->ReadVarint());
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t granularity,
                            reader->ReadVarint());
  if (num_shards == 0 || num_shards > (1u << 20)) {
    return Status::IOError("fleet snapshot shard count is implausible");
  }
  if (granularity > static_cast<uint64_t>(retail::Granularity::kSegment)) {
    return Status::IOError("fleet snapshot holds an unknown granularity");
  }
  options.num_shards = num_shards;
  options.granularity = static_cast<retail::Granularity>(granularity);

  CHURNLAB_ASSIGN_OR_RETURN(ScoringFleet fleet, Make(options, taxonomy));
  for (size_t shard = 0; shard < fleet.store_.num_shards(); ++shard) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t size, reader->ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t crc, reader->ReadVarint());
    // ReadBytes clamps the untrusted length prefix against the remaining
    // buffer, so a corrupted size cannot over-read or over-allocate.
    CHURNLAB_ASSIGN_OR_RETURN(std::string payload,
                              reader->ReadBytes(size));
    if (read_frame_failpoint->armed()) {
      CHURNLAB_RETURN_NOT_OK(
          read_frame_failpoint->CorruptBytes(&payload, shard));
    }
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::IOError("fleet snapshot shard frame failed its CRC");
    }
    BinaryReader frame(std::move(payload));
    CHURNLAB_RETURN_NOT_OK(fleet.store_.LoadShardState(shard, &frame));
    if (!frame.AtEnd()) {
      return Status::IOError("fleet snapshot shard frame has trailing bytes");
    }
  }
  if (!reader->AtEnd()) {
    return Status::IOError("fleet snapshot has trailing bytes");
  }
  Metrics().customers->Set(static_cast<double>(fleet.NumCustomers()));
  return fleet;
}

BatchReport SliceBatchReport(const BatchReport& merged, size_t begin_index,
                             size_t end_index) {
  BatchReport slice;
  if (end_index < begin_index) end_index = begin_index;
  for (const FleetAlert& alert : merged.alerts) {
    if (alert.batch_index < begin_index || alert.batch_index >= end_index) {
      continue;
    }
    FleetAlert rebased = alert;
    rebased.batch_index -= begin_index;
    slice.alerts.push_back(std::move(rebased));
  }
  for (const RejectedReceipt& rejected : merged.rejected) {
    if (rejected.batch_index < begin_index ||
        rejected.batch_index >= end_index) {
      continue;
    }
    RejectedReceipt rebased = rejected;
    rebased.batch_index -= begin_index;
    slice.rejected.push_back(std::move(rebased));
  }
  // Every receipt of the range was either ingested or rejected; the merged
  // report's counts cannot be attributed to a sub-span directly, but the
  // range size minus its rejections can. new_customers stays 0: "first
  // touch" is a property of the whole coalesced batch, not of the sub-span
  // (documented in the header).
  slice.receipts_ingested = (end_index - begin_index) - slice.rejected.size();
  slice.poisoned = merged.poisoned;
  return slice;
}

Result<CustomerQuery> ScoringFleet::QueryCustomer(
    retail::CustomerId customer) {
  if (customer == retail::kInvalidCustomer) {
    return Status::InvalidArgument("invalid customer id");
  }
  const size_t shard = store_.ShardOf(customer);
  return store_.WithShard(
      shard,
      [&](CustomerStateStore::ShardAccessor& access)
          -> Result<CustomerQuery> {
        CHURNLAB_ASSIGN_OR_RETURN(CustomerStateStore::CustomerRef state,
                                  access.Find(customer));
        CustomerQuery query;
        query.customer = customer;
        query.shard = shard;
        query.stability = state.last_stability();
        query.state_bytes = state.MemoryUsage();
        return query;
      });
}

namespace {

/// Walks the generations of a "CHLFGENS" file's `bytes` in file order,
/// calling `visit(stored size, stored CRC, payload view)` on each until it
/// returns true. A generation that does not start with the magic or cannot
/// be parsed ends the walk as a torn tail (a crashed or partially-retried
/// append). Returns whether the walk ended torn.
template <typename Visit>
bool WalkGenerations(std::string_view bytes, Visit visit) {
  BinaryReader reader = BinaryReader::Over(bytes);
  while (!reader.AtEnd()) {
    const Result<std::string_view> magic = reader.ReadView(
        std::min<size_t>(kSnapshotMagicSize, reader.remaining()));
    if (!magic.ok() || !magic->starts_with(kGenerationMagic)) return true;
    const Result<uint64_t> size = reader.ReadVarint();
    if (!size.ok()) return true;
    const Result<uint64_t> crc = reader.ReadVarint();
    if (!crc.ok()) return true;
    const Result<std::string_view> payload = reader.ReadView(*size);
    if (!payload.ok()) return true;
    if (visit(*size, *crc, *payload)) return false;
  }
  return false;
}

/// Restores the generation a journal checkpoint names: the one whose
/// stored size and CRC, and recomputed CRC, match `ref`. A torn tail ends
/// the search — the checkpointed generation always precedes it, so a tear
/// can only hide an orphan generation that was never checkpointed.
Result<ScoringFleet> RestoreByRef(const std::string& path,
                                  const SnapshotRef& ref,
                                  const retail::Taxonomy* taxonomy,
                                  const FleetOptions& runtime) {
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader file, BinaryReader::OpenFile(path));
  CHURNLAB_ASSIGN_OR_RETURN(const std::string_view bytes,
                            file.ReadView(file.remaining()));
  if (bytes.size() < kSnapshotMagicSize) {
    return Status::DataLoss("snapshot '" + path +
                            "' is too short for the journal checkpoint");
  }
  if (!bytes.starts_with(kGenerationMagic)) {
    return Status::DataLoss("snapshot '" + path +
                            "' is not the generation file the journal "
                            "checkpoint references");
  }
  std::optional<std::string_view> match;
  WalkGenerations(bytes, [&](uint64_t size, uint64_t crc,
                             std::string_view payload) {
    if (size == ref.size && crc == ref.crc &&
        Crc32(payload.data(), payload.size()) == ref.crc) {
      match = payload;
    }
    return match.has_value();
  });
  if (!match) {
    return Status::DataLoss(
        "snapshot '" + path +
        "' holds no generation matching the journal checkpoint");
  }
  BinaryReader snapshot = BinaryReader::Over(*match);
  return ScoringFleet::Restore(&snapshot, taxonomy, runtime);
}

}  // namespace

Result<ScoringFleet> ScoringFleet::RestoreFromFile(
    const std::string& path, const retail::Taxonomy* taxonomy,
    const FleetOptions& runtime) {
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader file, BinaryReader::OpenFile(path));
  CHURNLAB_ASSIGN_OR_RETURN(const std::string_view bytes,
                            file.ReadView(file.remaining()));
  if (bytes.size() < kSnapshotMagicSize) {
    return Status::IOError("'" + path + "' is too short to be a snapshot");
  }
  if (!bytes.starts_with(kGenerationMagic)) {
    // A bare snapshot: Restore reads it from its own magic on.
    BinaryReader bare = BinaryReader::Over(bytes);
    return Restore(&bare, taxonomy, runtime);
  }

  // Generation file: keep the newest generation whose CRC verifies; one
  // with a bad CRC is skipped.
  static Failpoint* const read_frame_failpoint =
      FailpointRegistry::Global().Get("serve.snapshot.read_frame");
  std::optional<std::string_view> newest;
  uint64_t generations = 0;
  uint64_t crc_failures = 0;
  Status injected;
  const bool torn = WalkGenerations(bytes, [&](uint64_t, uint64_t crc,
                                               std::string_view payload) {
    std::string_view read = payload;
    std::string corrupted;
    if (read_frame_failpoint->armed()) {
      corrupted = payload;
      injected = read_frame_failpoint->CorruptBytes(&corrupted, generations);
      if (!injected.ok()) return true;
      read = corrupted;
    }
    ++generations;
    if (Crc32(read.data(), read.size()) != crc) {
      ++crc_failures;
    } else {
      newest = payload;  // a copy that passes the CRC holds no flipped bit
    }
    return false;
  });
  CHURNLAB_RETURN_NOT_OK(injected);
  if (!newest) {
    return Status::IOError("snapshot generation file '" + path +
                           "' holds no restorable generation");
  }
  if (torn || crc_failures > 0) {
    obs::LogEvent(LogLevel::kWarning, "snapshot_generation_fallback",
                  __FILE__, __LINE__)
        .Str("path", path)
        .Uint("generations_seen", generations)
        .Uint("crc_failures", crc_failures)
        .Bool("torn_tail", torn);
    Metrics().snapshot_fallbacks->Increment();
  }
  BinaryReader snapshot = BinaryReader::Over(*newest);
  return Restore(&snapshot, taxonomy, runtime);
}

Result<ScoringFleet> ScoringFleet::Recover(
    const JournalRecovery& recovery, const std::string& snapshot_path,
    const FleetOptions& fresh_options, const retail::Taxonomy* taxonomy,
    size_t num_threads, StateLayout /*layout*/) {
  CHURNLAB_SPAN("serve.recover");
  FleetOptions options = fresh_options;
  if (num_threads > 0) options.num_threads = num_threads;
  Result<ScoringFleet> base = [&]() -> Result<ScoringFleet> {
    if (recovery.snapshot.kind == SnapshotRef::Kind::kNone) {
      if (recovery.watermark != 0) {
        return Status::DataLoss(
            "journal checkpoint has watermark " +
            std::to_string(recovery.watermark) +
            " but references no snapshot");
      }
      return Make(options, taxonomy);
    }
    if (snapshot_path.empty()) {
      return Status::InvalidArgument(
          "journal checkpoint references a snapshot but no snapshot path "
          "was given");
    }
    return RestoreByRef(snapshot_path, recovery.snapshot, taxonomy, options);
  }();
  if (!base.ok()) {
    return base.status().WithContext("recovering fleet base state");
  }
  ScoringFleet fleet = std::move(base).ValueOrDie();

  // Replay every journaled receipt in one fan-out. A customer's state
  // depends only on its own receipts in sequence order, which the shard
  // partition keeps, so the recovered fleet's snapshot is byte-identical to
  // the crashed server's, whose coalescer applied the same receipts one
  // frame at a time. Nothing else runs while a server recovers, and output
  // is identical for any thread count, so the replay fans out on a pool of
  // its own with a worker per core; the fleet then serves with the
  // caller's count.
  const Stopwatch replay_clock;
  const size_t serving_threads = fleet.options_.num_threads;
  const size_t replay_threads = std::max<size_t>(
      {serving_threads, std::thread::hardware_concurrency(), 1});
  fleet.options_.num_threads = replay_threads;
  if (!recovery.frames.empty()) {
    size_t failed_index = 0;  // an injected batch fault: the first frame's
    const Result<BatchReport> report =
        fleet.Ingest(recovery.receipts, &failed_index);
    if (!report.ok()) {
      // Name the frame a frame-by-frame replay would have failed in: the
      // last one starting at or before the failed receipt's sequence.
      const uint64_t sequence =
          recovery.frames.front().first_sequence + failed_index;
      const auto after = std::upper_bound(
          recovery.frames.begin(), recovery.frames.end(), sequence,
          [](uint64_t value, const JournalFrame& frame) {
            return value < frame.first_sequence;
          });
      return report.status().WithContext(
          "replaying journal frame at sequence " +
          std::to_string(std::prev(after)->first_sequence));
    }
  }
  fleet.options_.num_threads = serving_threads;
  fleet.pool_.reset();
  obs::LogEvent(LogLevel::kInfo, "journal_replay_complete", __FILE__,
                __LINE__)
      .Uint("frames", recovery.frames.size())
      .Uint("receipts", recovery.receipts.size())
      .Uint("watermark", recovery.watermark)
      .Uint("next_sequence", recovery.next_sequence)
      .Uint("customers", fleet.NumCustomers())
      .Num("scan_ms", recovery.scan_ms)
      .Num("replay_ms", replay_clock.ElapsedMillis())
      .Uint("threads", replay_threads);
  return fleet;
}

}  // namespace serve
}  // namespace churnlab
