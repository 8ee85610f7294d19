#include "serve/fleet.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
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

constexpr size_t kUnsetCount = ~size_t{0};

/// Per-shard scratch for one fleet operation. Mutated only by the shard's
/// own task; survives across retry attempts, so `progress` lets a retried
/// task resume after the last fully-processed item instead of
/// double-ingesting.
struct ShardOutput {
  Status status = Status::OK();
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

Result<BatchReport> ScoringFleet::IngestBatch(
    std::span<const retail::Receipt> receipts) {
  CHURNLAB_SPAN("serve.ingest_batch");
  CHURNLAB_FAILPOINT("serve.ingest.batch");
  const ServeMetrics& metrics = Metrics();
  obs::ScopedLatency latency(metrics.ingest_batch_us);

  // Partition by shard, preserving batch order within each shard so every
  // customer's receipts stay chronological.
  const size_t num_shards = store_.num_shards();
  std::vector<std::vector<size_t>> by_shard(num_shards);
  for (size_t i = 0; i < receipts.size(); ++i) {
    by_shard[store_.ShardOf(receipts[i].customer)].push_back(i);
  }

  std::vector<ShardOutput> outputs(num_shards);
  const auto run_shard = [&](size_t shard) {
    ShardOutput& out = outputs[shard];
    obs::FlightSpan flight(ShardTaskSite(), shard);
    // Per-shard latency histogram, interned lazily by the shard's own task
    // (at most one task per shard is in flight, so the slot never races).
    if (obs::DetailedTimingEnabled() && shard_latency_[shard] == nullptr) {
      shard_latency_[shard] = obs::MetricsRegistry::Global().GetHistogram(
          obs::LabeledMetricName("churnlab.serve.shard_ingest_us",
                                 {{"shard", std::to_string(shard)}}));
    }
    obs::ScopedLatency shard_latency(shard_latency_[shard]);
    std::vector<core::Symbol> symbols;
    // Processes the shard's receipts from out.progress on. A failpoint for
    // a receipt fires before that receipt mutates any state, so a retried
    // attempt resumes cleanly; quarantined receipts advance progress like
    // ingested ones.
    const auto process =
        [&](CustomerStateStore::ShardAccessor& access) -> Status {
      const std::vector<size_t>& indices = by_shard[shard];
      while (out.progress < indices.size()) {
        const size_t batch_index = indices[out.progress];
        const retail::Receipt& receipt = receipts[batch_index];
        if (receipt.customer == retail::kInvalidCustomer) {
          Status bad = Status::InvalidArgument(
              "batch receipt has an invalid customer id");
          if (!options_.quarantine_malformed) return bad;
          out.rejected.push_back(RejectedReceipt{
              receipt.customer, batch_index, receipt.day, std::move(bad)});
          ++out.progress;
          continue;
        }
        CHURNLAB_FAILPOINT_KEYED("serve.ingest.receipt", receipt.customer);
        MapSymbols(receipt, &symbols);
        CustomerStateStore::CustomerRef state =
            access.GetOrCreate(receipt.customer);
        Result<std::vector<core::StabilityAlert>> closed =
            state.Observe(receipt.day, symbols);
        if (!closed.ok()) {
          if (!options_.quarantine_malformed) return closed.status();
          out.rejected.push_back(RejectedReceipt{
              receipt.customer, batch_index, receipt.day, closed.status()});
          ++out.progress;
          continue;
        }
        for (core::StabilityAlert& alert : *closed) {
          out.alerts.push_back(
              FleetAlert{receipt.customer, batch_index, alert});
        }
        ++out.receipts;
        ++out.progress;
      }
      return Status::OK();
    };
    const auto attempt = [&]() -> Status {
      CHURNLAB_FAILPOINT_KEYED("serve.shard.task", shard);
      return store_.WithShard(
          shard, [&](CustomerStateStore::ShardAccessor& access) -> Status {
            if (out.customers_before == kUnsetCount) {
              out.customers_before = access.size();
            }
            const Status status = process(access);
            out.new_customers = access.size() - out.customers_before;
            return status;
          });
    };
    out.status = RetryWithBackoff(
        options_.shard_retry, attempt, [&metrics, &out](int, const Status&) {
          metrics.shard_retries->Increment();
          ++out.retries;
        });
  };

  const size_t num_threads = std::min(options_.num_threads, num_shards);
  if (num_threads > 1) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(num_threads);
    }
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (by_shard[shard].empty() || !shard_health_[shard].ok()) continue;
      pool_->Submit([&run_shard, shard] { run_shard(shard); });
    }
    pool_->WaitIdle();
  } else {
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (by_shard[shard].empty() || !shard_health_[shard].ok()) continue;
      run_shard(shard);
    }
  }

  BatchReport report;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardOutput& out = outputs[shard];
    ShardStats& stats = shard_stats_[shard];
    stats.last_batch_receipts = by_shard[shard].size();
    if (!shard_health_[shard].ok()) {
      // Already poisoned: the shard never ran; quarantine its receipts.
      report.poisoned.push_back(PoisonedShard{shard, shard_health_[shard]});
      stats.rejected += by_shard[shard].size();
      for (const size_t batch_index : by_shard[shard]) {
        const retail::Receipt& receipt = receipts[batch_index];
        report.rejected.push_back(RejectedReceipt{
            receipt.customer, batch_index, receipt.day,
            shard_health_[shard].WithContext("shard poisoned")});
      }
      continue;
    }
    if (!out.status.ok()) {
      // Retries exhausted. With quarantine on, poison only this shard and
      // quarantine its unprocessed tail; otherwise fail the batch (first
      // failing shard by index, so the reported error is deterministic).
      if (!options_.quarantine_malformed) return out.status;
      shard_health_[shard] = out.status;
      metrics.poisoned_shards->Increment();
      report.poisoned.push_back(PoisonedShard{shard, out.status});
      stats.rejected += by_shard[shard].size() - out.progress;
      for (size_t i = out.progress; i < by_shard[shard].size(); ++i) {
        const size_t batch_index = by_shard[shard][i];
        const retail::Receipt& receipt = receipts[batch_index];
        report.rejected.push_back(RejectedReceipt{
            receipt.customer, batch_index, receipt.day,
            out.status.WithContext("shard poisoned")});
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
  std::sort(report.rejected.begin(), report.rejected.end(),
            [](const RejectedReceipt& a, const RejectedReceipt& b) {
              return a.batch_index < b.batch_index;
            });

  metrics.batches_ingested->Increment();
  metrics.receipts_ingested->Increment(report.receipts_ingested);
  metrics.alerts_raised->Increment(report.alerts.size());
  metrics.rejected_receipts->Increment(report.rejected.size());
  metrics.customers->Set(static_cast<double>(store_.NumCustomers()));
  obs::FlightRecorder::Record(IngestBatchSite(), receipts.size());
  PublishShardTelemetry();
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

template <typename PerCustomerOp>
Result<BatchReport> ScoringFleet::ForAllCustomers(const char* span_name,
                                                  PerCustomerOp&& op) {
  CHURNLAB_SPAN(span_name);
  const ServeMetrics& metrics = Metrics();
  const size_t num_shards = store_.num_shards();
  std::vector<ShardOutput> outputs(num_shards);
  const auto run_shard = [&](size_t shard) {
    ShardOutput& out = outputs[shard];
    obs::FlightSpan flight(ShardTaskSite(), shard);
    const auto attempt = [&]() -> Status {
      CHURNLAB_FAILPOINT_KEYED("serve.shard.task", shard);
      return store_.WithShard(
          shard, [&](CustomerStateStore::ShardAccessor& access) -> Status {
            while (out.progress < access.size()) {
              CustomerStateStore::CustomerRef state = access.At(out.progress);
              Result<std::vector<core::StabilityAlert>> closed = op(state);
              if (!closed.ok()) return closed.status();
              for (core::StabilityAlert& alert : *closed) {
                out.alerts.push_back(FleetAlert{state.customer(), 0, alert});
              }
              ++out.progress;
            }
            return Status::OK();
          });
    };
    out.status = RetryWithBackoff(
        options_.shard_retry, attempt, [&metrics, &out](int, const Status&) {
          metrics.shard_retries->Increment();
          ++out.retries;
        });
  };

  const size_t num_threads = std::min(options_.num_threads, num_shards);
  if (num_threads > 1) {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(num_threads);
    }
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (!shard_health_[shard].ok()) continue;
      pool_->Submit([&run_shard, shard] { run_shard(shard); });
    }
    pool_->WaitIdle();
  } else {
    for (size_t shard = 0; shard < num_shards; ++shard) {
      if (shard_health_[shard].ok()) run_shard(shard);
    }
  }

  BatchReport report;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardOutput& out = outputs[shard];
    if (!shard_health_[shard].ok()) {
      report.poisoned.push_back(PoisonedShard{shard, shard_health_[shard]});
      continue;
    }
    if (!out.status.ok()) {
      if (!options_.quarantine_malformed) return out.status;
      shard_health_[shard] = out.status;
      metrics.poisoned_shards->Increment();
      report.poisoned.push_back(PoisonedShard{shard, out.status});
    }
    shard_stats_[shard].alerts += out.alerts.size();
    shard_stats_[shard].retries += out.retries;
    report.alerts.insert(report.alerts.end(),
                         std::make_move_iterator(out.alerts.begin()),
                         std::make_move_iterator(out.alerts.end()));
  }
  std::sort(report.alerts.begin(), report.alerts.end(), AlertLess);
  metrics.alerts_raised->Increment(report.alerts.size());
  PublishShardTelemetry();
  return report;
}

Result<BatchReport> ScoringFleet::AdvanceAllTo(retail::Day day) {
  return ForAllCustomers("serve.advance_all",
                         [day](CustomerStateStore::CustomerRef& state) {
                           return state.AdvanceTo(day);
                         });
}

Result<BatchReport> ScoringFleet::FinishAll() {
  return ForAllCustomers("serve.finish_all",
                         [](CustomerStateStore::CustomerRef& state) {
                           return state.Finish();
                         });
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

Result<SnapshotRef> ScoringFleet::SaveSnapshotWithRef(
    const std::string& path) const {
  SnapshotRef ref;
  const Status written =
      RetryWithBackoff(options_.shard_retry, [&]() -> Status {
        BinaryWriter writer;
        CHURNLAB_RETURN_NOT_OK(SaveSnapshot(&writer));
        ref.kind = SnapshotRef::Kind::kBare;
        ref.size = writer.buffer().size();
        ref.crc = Crc32(writer.buffer().data(), writer.buffer().size());
        return writer.SaveToFile(path);
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

Result<ScoringFleet> ScoringFleet::RestoreFromFile(
    const std::string& path, const retail::Taxonomy* taxonomy,
    const FleetOptions& runtime) {
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader reader,
                            BinaryReader::OpenFile(path));
  if (reader.remaining() < kSnapshotMagicSize) {
    return Status::IOError("'" + path + "' is too short to be a snapshot");
  }
  CHURNLAB_ASSIGN_OR_RETURN(std::string magic,
                            reader.ReadBytes(kSnapshotMagicSize));
  if (magic != std::string_view(kGenerationMagic, kSnapshotMagicSize)) {
    // Bare snapshot: re-open so Restore sees the magic it expects.
    CHURNLAB_ASSIGN_OR_RETURN(BinaryReader bare,
                              BinaryReader::OpenFile(path));
    return Restore(&bare, taxonomy, runtime);
  }

  // Generation file: scan frames, keep the newest whose CRC verifies. A
  // frame that cannot be parsed ends the scan (torn tail from a crashed or
  // partially-retried append); a parseable frame with a bad CRC is skipped.
  static Failpoint* const read_frame_failpoint =
      FailpointRegistry::Global().Get("serve.snapshot.read_frame");
  std::string newest;
  bool have_valid = false;
  uint64_t generations = 0;
  uint64_t crc_failures = 0;
  bool torn = false;
  for (;;) {
    const Result<uint64_t> size = reader.ReadVarint();
    if (!size.ok()) {
      torn = true;
      break;
    }
    const Result<uint64_t> crc = reader.ReadVarint();
    if (!crc.ok()) {
      torn = true;
      break;
    }
    Result<std::string> payload = reader.ReadBytes(*size);
    if (!payload.ok()) {
      torn = true;
      break;
    }
    if (read_frame_failpoint->armed()) {
      CHURNLAB_RETURN_NOT_OK(
          read_frame_failpoint->CorruptBytes(&*payload, generations));
    }
    ++generations;
    if (Crc32(payload->data(), payload->size()) != *crc) {
      ++crc_failures;
    } else {
      newest = std::move(*payload);
      have_valid = true;
    }
    if (reader.AtEnd()) break;
    const Result<std::string> next_magic =
        reader.ReadBytes(std::min<size_t>(kSnapshotMagicSize,
                                          reader.remaining()));
    if (!next_magic.ok() ||
        *next_magic !=
            std::string_view(kGenerationMagic, kSnapshotMagicSize)) {
      torn = true;
      break;
    }
  }
  if (!have_valid) {
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
  BinaryReader newest_reader(std::move(newest));
  return Restore(&newest_reader, taxonomy, runtime);
}

namespace {

/// Loads the bare snapshot payload a journal checkpoint names. For a bare
/// file the whole content must match `ref`; for a generation file the
/// matching generation is searched for (a torn tail ends the scan — the
/// checkpointed generation always precedes it, so a tear can only hide an
/// orphan generation that was never checkpointed).
Result<std::string> LoadSnapshotByRef(const std::string& path,
                                      const SnapshotRef& ref) {
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader reader,
                            BinaryReader::OpenFile(path));
  if (reader.remaining() < kSnapshotMagicSize) {
    return Status::DataLoss("snapshot '" + path +
                            "' is too short for the journal checkpoint");
  }
  if (ref.kind == SnapshotRef::Kind::kBare) {
    CHURNLAB_ASSIGN_OR_RETURN(std::string payload,
                              reader.ReadBytes(reader.remaining()));
    if (payload.size() != ref.size ||
        Crc32(payload.data(), payload.size()) != ref.crc) {
      return Status::DataLoss(
          "snapshot '" + path +
          "' does not match the journal checkpoint's size/CRC");
    }
    return payload;
  }
  CHURNLAB_ASSIGN_OR_RETURN(std::string magic,
                            reader.ReadBytes(kSnapshotMagicSize));
  if (magic != std::string_view(kGenerationMagic, kSnapshotMagicSize)) {
    return Status::DataLoss("snapshot '" + path +
                            "' is not the generation file the journal "
                            "checkpoint references");
  }
  for (;;) {
    const Result<uint64_t> size = reader.ReadVarint();
    if (!size.ok()) break;
    const Result<uint64_t> crc = reader.ReadVarint();
    if (!crc.ok()) break;
    Result<std::string> payload = reader.ReadBytes(*size);
    if (!payload.ok()) break;
    if (*size == ref.size && *crc == ref.crc &&
        Crc32(payload->data(), payload->size()) == ref.crc) {
      return std::move(*payload);
    }
    if (reader.AtEnd()) break;
    const Result<std::string> next_magic = reader.ReadBytes(
        std::min<size_t>(kSnapshotMagicSize, reader.remaining()));
    if (!next_magic.ok() ||
        *next_magic !=
            std::string_view(kGenerationMagic, kSnapshotMagicSize)) {
      break;
    }
  }
  return Status::DataLoss(
      "snapshot '" + path +
      "' holds no generation matching the journal checkpoint");
}

}  // namespace

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
    CHURNLAB_ASSIGN_OR_RETURN(
        std::string payload,
        LoadSnapshotByRef(snapshot_path, recovery.snapshot));
    BinaryReader snapshot(std::move(payload));
    return Restore(&snapshot, taxonomy, options);
  }();
  if (!base.ok()) {
    return base.status().WithContext("recovering fleet base state");
  }
  ScoringFleet fleet = std::move(base).ValueOrDie();

  // Replay the journaled batches exactly as the coalescer applied them.
  // Sequence order fully determines fleet state, so the recovered fleet's
  // snapshot is byte-identical to the crashed server's would have been.
  uint64_t replayed_receipts = 0;
  for (const JournalFrame& frame : recovery.frames) {
    Result<BatchReport> report = fleet.IngestBatch(frame.receipts);
    if (!report.ok()) {
      return report.status().WithContext(
          "replaying journal frame at sequence " +
          std::to_string(frame.first_sequence));
    }
    replayed_receipts += frame.receipts.size();
  }
  obs::LogEvent(LogLevel::kInfo, "journal_replay_complete", __FILE__,
                __LINE__)
      .Uint("frames", recovery.frames.size())
      .Uint("receipts", replayed_receipts)
      .Uint("watermark", recovery.watermark)
      .Uint("next_sequence", recovery.next_sequence)
      .Uint("customers", fleet.NumCustomers());
  return fleet;
}

}  // namespace serve
}  // namespace churnlab
