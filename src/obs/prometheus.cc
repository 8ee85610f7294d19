#include "obs/prometheus.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string_view>

namespace churnlab {
namespace obs {

namespace {

/// Central metric inventory: help text per base name, mirrored in the
/// docs/OBSERVABILITY.md table. Keep the two in sync when adding metrics.
struct MetricHelpEntry {
  const char* base;
  const char* help;
};

constexpr MetricHelpEntry kInventory[] = {
    {"churnlab.core.alerts_low_stability", "monitor low-stability alerts"},
    {"churnlab.core.alerts_sharp_drop", "monitor sharp-drop alerts"},
    {"churnlab.core.customers_scored", "customers through ScoreDataset"},
    {"churnlab.core.observe_latency_us",
     "per-window scoring latency in microseconds (batch samples 1 in 16)"},
    {"churnlab.core.online_observations",
     "OnlineStabilityScorer::Observe calls"},
    {"churnlab.core.online_windows_emitted",
     "windows emitted by the online scorer"},
    {"churnlab.core.online_windows_per_sec",
     "online emission rate since the first emit"},
    {"churnlab.core.receipts_windowed", "receipts binned into windows"},
    {"churnlab.core.score_customer_us",
     "per-customer scoring latency in microseconds"},
    {"churnlab.core.stability_series_computed",
     "per-customer stability series computed"},
    {"churnlab.core.stability_windows_scored",
     "windows scored in batch passes"},
    {"churnlab.core.windows_built", "windows materialised by Windower::Build"},
    {"churnlab.core.windows_per_sec",
     "batch-scoring throughput of the last ScoreDataset"},
    {"churnlab.eval.auroc_computations", "per-window AUROC evaluations"},
    {"churnlab.eval.fold_ms", "per-CV-fold wall time in milliseconds"},
    {"churnlab.eval.forecast_runs", "forecaster invocations"},
    {"churnlab.eval.grid_cell_ms", "per-grid-cell wall time in milliseconds"},
    {"churnlab.eval.grid_cells_evaluated", "grid-search cells evaluated"},
    {"churnlab.eval.threads",
     "worker threads of the last parallel evaluation sweep"},
    {"churnlab.failpoint.triggered", "injected faults fired"},
    {"churnlab.journal.appended_bytes",
     "bytes appended to write-ahead journal segments"},
    {"churnlab.journal.appended_frames",
     "batch frames appended to the write-ahead journal"},
    {"churnlab.journal.checkpoints", "journal checkpoints written"},
    {"churnlab.journal.discarded_tail_frames",
     "torn tail frames discarded during journal recovery"},
    {"churnlab.journal.durable_sequence",
     "one past the last receipt sequence on stable storage"},
    {"churnlab.journal.fsync_us",
     "journal fsync latency in microseconds"},
    {"churnlab.journal.recovered_frames",
     "frames replayed from the journal during recovery"},
    {"churnlab.journal.recovered_receipts",
     "receipts replayed from the journal during recovery"},
    {"churnlab.journal.rounds_per_fsync",
     "ingest rounds made durable by one group-commit journal fsync"},
    {"churnlab.journal.truncated_segments",
     "journal segments deleted by checkpoint truncation"},
    {"churnlab.net.bytes_read", "bytes received from HTTP clients"},
    {"churnlab.net.bytes_written", "bytes sent to HTTP clients"},
    {"churnlab.net.coalesced_batch_receipts",
     "receipts per coalesced ingest batch"},
    {"churnlab.net.coalesced_batches",
     "merged ingest batches submitted by the coalescer leader"},
    {"churnlab.net.coalesced_requests",
     "ingest requests folded into coalesced batches"},
    {"churnlab.net.connections", "TCP connections accepted"},
    {"churnlab.net.connections_active", "connections currently being served"},
    {"churnlab.net.drains", "graceful drains completed"},
    {"churnlab.net.inflight", "HTTP requests currently being handled"},
    {"churnlab.net.parse_errors",
     "connections dropped on malformed or oversized HTTP input"},
    {"churnlab.net.pending_receipts",
     "receipts queued in the ingest coalescer"},
    {"churnlab.net.request_us", "per-request handling latency in microseconds"},
    {"churnlab.net.requests", "HTTP requests dispatched"},
    {"churnlab.net.responses_2xx", "HTTP responses with 2xx status"},
    {"churnlab.net.responses_4xx", "HTTP responses with 4xx status"},
    {"churnlab.net.responses_5xx", "HTTP responses with 5xx status"},
    {"churnlab.net.shed",
     "requests shed by admission control or the drain gate (429/503)"},
    {"churnlab.obs.flight_events_recorded",
     "events recorded by the flight recorder (including overwritten ones)"},
    {"churnlab.obs.snapshots_taken",
     "time-series samples taken by the telemetry snapshotter"},
    {"churnlab.retail.datasets_loaded", "CSV/binary datasets loaded"},
    {"churnlab.retail.datasets_saved", "datasets written"},
    {"churnlab.retail.last_load_seconds", "wall time of the last load"},
    {"churnlab.retail.receipts_loaded", "receipts across all loads"},
    {"churnlab.rfm.extractions", "RFM feature-extraction passes"},
    {"churnlab.rfm.feature_rows", "(customer, window) feature rows built"},
    {"churnlab.serve.alerts_raised",
     "fleet alerts raised (all kinds, all operations)"},
    {"churnlab.serve.batches_ingested", "ScoringFleet::IngestBatch calls"},
    {"churnlab.serve.bytes",
     "per-shard customer-state bytes held (scalar + blocks + index)"},
    {"churnlab.serve.bytes_total",
     "customer-state bytes held across all shards"},
    {"churnlab.serve.customers",
     "customers currently held by the fleet state store"},
    {"churnlab.serve.ingest_batch_us",
     "per-batch ingestion latency in microseconds"},
    {"churnlab.serve.poisoned_shards",
     "shards taken out of service after retry exhaustion"},
    {"churnlab.serve.queue_depth",
     "fleet thread-pool tasks queued but not yet running"},
    {"churnlab.serve.receipts_ingested",
     "receipts through ScoringFleet::IngestBatch"},
    {"churnlab.serve.rejected_receipts",
     "malformed receipts quarantined into BatchReport::rejected"},
    {"churnlab.serve.shard_alerts", "per-shard fleet alerts raised"},
    {"churnlab.serve.shard_customers", "per-shard customer population"},
    {"churnlab.serve.shard_ingest_us",
     "per-shard ingest-task latency in microseconds"},
    {"churnlab.serve.shard_last_batch_receipts",
     "receipts routed to the shard by the last batch (queue-depth proxy)"},
    {"churnlab.serve.shard_poisoned", "1 when the shard is poisoned, else 0"},
    {"churnlab.serve.shard_receipts", "per-shard receipts ingested"},
    {"churnlab.serve.shard_rejected", "per-shard receipts quarantined"},
    {"churnlab.serve.shard_retries", "shard-task retry attempts"},
    {"churnlab.serve.snapshot_fallbacks",
     "snapshot restores that fell back to an older generation"},
    {"churnlab.threadpool.dropped_exceptions",
     "task exceptions beyond the first per WaitIdle cycle"},
    {"churnlab.threadpool.workers_started",
     "worker threads started by thread pools"},
};

bool IsValidNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Splits a registry name into its base and the `{...}` label block (empty
/// when unlabeled). The block, if present, is passed through verbatim —
/// LabeledMetricName already escaped its values.
void SplitLabeledName(std::string_view name, std::string_view* base,
                      std::string_view* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string_view::npos) {
    *base = name;
    *labels = {};
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace);
}

void AppendDouble(double value, std::string* out) {
  if (value != value) {
    out->append("NaN");
    return;
  }
  if (value > 1.7976931348623157e308) {
    out->append("+Inf");
    return;
  }
  if (value < -1.7976931348623157e308) {
    out->append("-Inf");
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

void AppendUint(uint64_t value, std::string* out) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  out->append(buffer);
}

/// Emits the `# HELP` / `# TYPE` preamble once per family (families arrive
/// sorted, so labeled variants of one base are contiguous).
void EmitFamilyHeader(std::string_view base, const std::string& family,
                      const char* type, std::string* out,
                      std::string* last_family) {
  if (family == *last_family) return;
  *last_family = family;
  out->append("# HELP ").append(family).append(" ");
  if (const char* help = MetricHelp(base)) {
    out->append(help);
  } else {
    out->append("churnlab metric ").append(base);
  }
  out->append("\n# TYPE ").append(family).append(" ").append(type);
  out->push_back('\n');
}

/// `name{existing}` + extra label -> `name{existing,extra}`; handles the
/// unlabeled case too.
std::string WithExtraLabel(const std::string& name, std::string_view labels,
                           std::string_view extra) {
  std::string out = name;
  if (labels.empty()) {
    out.push_back('{');
    out.append(extra);
    out.push_back('}');
    return out;
  }
  // labels == "{...}": splice the extra label before the closing brace.
  out.append(labels.substr(0, labels.size() - 1));
  out.push_back(',');
  out.append(extra);
  out.push_back('}');
  return out;
}

}  // namespace

std::string ManglePrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (IsValidNameChar(c, /*first=*/out.empty())) {
      out.push_back(c);
    } else if (out.empty() && c >= '0' && c <= '9') {
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "_";
  return out;
}

std::string LabeledMetricName(
    std::string_view base,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string name(base);
  if (labels.size() == 0) return name;
  name.push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) name.push_back(',');
    first = false;
    name.append(ManglePrometheusName(key));
    name.append("=\"");
    for (const char c : value) {
      switch (c) {
        case '\\':
          name.append("\\\\");
          break;
        case '"':
          name.append("\\\"");
          break;
        case '\n':
          name.append("\\n");
          break;
        default:
          name.push_back(c);
      }
    }
    name.push_back('"');
  }
  name.push_back('}');
  return name;
}

const char* MetricHelp(std::string_view base) {
  for (const MetricHelpEntry& entry : kInventory) {
    if (base == entry.base) return entry.help;
  }
  return nullptr;
}

std::string ExportPrometheus(const MetricsSnapshot& metrics) {
  std::string out;
  std::string last_family;

  for (const MetricsSnapshot::CounterSample& counter : metrics.counters) {
    std::string_view base, labels;
    SplitLabeledName(counter.name, &base, &labels);
    std::string family = ManglePrometheusName(base);
    // Prometheus counters conventionally carry a _total suffix.
    if (family.size() < 6 ||
        family.compare(family.size() - 6, 6, "_total") != 0) {
      family.append("_total");
    }
    EmitFamilyHeader(base, family, "counter", &out, &last_family);
    out.append(family).append(labels).push_back(' ');
    AppendUint(counter.value, &out);
    out.push_back('\n');
  }

  for (const MetricsSnapshot::GaugeSample& gauge : metrics.gauges) {
    std::string_view base, labels;
    SplitLabeledName(gauge.name, &base, &labels);
    const std::string family = ManglePrometheusName(base);
    EmitFamilyHeader(base, family, "gauge", &out, &last_family);
    out.append(family).append(labels).push_back(' ');
    AppendDouble(gauge.value, &out);
    out.push_back('\n');
  }

  for (const MetricsSnapshot::HistogramSample& sample : metrics.histograms) {
    std::string_view base, labels;
    SplitLabeledName(sample.name, &base, &labels);
    const std::string family = ManglePrometheusName(base);
    EmitFamilyHeader(base, family, "histogram", &out, &last_family);
    const HistogramSnapshot& histogram = sample.histogram;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.buckets.size(); ++i) {
      cumulative += histogram.buckets[i];
      std::string le = "le=\"";
      if (i < histogram.bounds.size()) {
        AppendDouble(histogram.bounds[i], &le);
      } else {
        le.append("+Inf");
      }
      le.push_back('"');
      out.append(WithExtraLabel(family + "_bucket", labels, le));
      out.push_back(' ');
      AppendUint(cumulative, &out);
      out.push_back('\n');
    }
    out.append(family).append("_sum").append(labels).push_back(' ');
    AppendDouble(histogram.sum, &out);
    out.push_back('\n');
    out.append(family).append("_count").append(labels).push_back(' ');
    AppendUint(histogram.count, &out);
    out.push_back('\n');
  }

  return out;
}

std::string ExportPrometheusGlobal() {
  return ExportPrometheus(MetricsRegistry::Global().Snapshot());
}

Status WritePrometheusFile(const std::string& path) {
  const std::string document = ExportPrometheusGlobal();
  const std::string temp = path + ".tmp";
  std::FILE* file = std::fopen(temp.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + temp + "' for writing");
  }
  const size_t written =
      std::fwrite(document.data(), 1, document.size(), file);
  if (std::fclose(file) != 0 || written != document.size()) {
    std::remove(temp.c_str());
    return Status::IOError("failed writing prometheus text to '" + temp +
                           "'");
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IOError("cannot rename '" + temp + "' to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace churnlab
