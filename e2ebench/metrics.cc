#include "metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <unordered_map>

#include "churnlab.h"
#include "common/macros.h"
#include "net/http.h"
#include "net/json_codec.h"
#include "stats.h"

namespace churnlab {
namespace e2e {
namespace {

namespace fs = std::filesystem;

double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
int64_t Duration(const Span& span) { return span.end_ns - span.start_ns; }

/// The element of `sorted` (ascending by `first_sequence`) whose range
/// holds `sequence`, or nullptr.
template <typename T>
const T* Covering(const std::vector<T>& sorted, uint64_t sequence) {
  auto it = std::upper_bound(
      sorted.begin(), sorted.end(), sequence,
      [](uint64_t s, const T& item) { return s < item.first_sequence; });
  if (it == sorted.begin()) return nullptr;
  --it;
  return sequence < it->first_sequence + it->receipts ? &*it : nullptr;
}

/// Spans of the traced backend, indexed for the joins.
struct SpanIndex {
  /// Round spans sorted by first_sequence, with their reports.
  struct RoundRef {
    const Span* span = nullptr;
    const Round* round = nullptr;
    uint64_t first_sequence = 0;
    uint64_t receipts = 0;
    int64_t child_ns = 0;
  };
  std::vector<RoundRef> rounds;
  std::vector<const Span*> appends, applies, syncs, queries;
  std::vector<const Span*> snapshots, snapshot_writes, checkpoints;
  std::unordered_map<retail::CustomerId, std::vector<const Span*>>
      queries_by_customer;
};

SpanIndex IndexSpans(const SessionResult& traced) {
  SpanIndex index;
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& span : traced.spans) {
    const std::string_view name = span.name;
    if (name == "serve.backend.round") {
      index.rounds.push_back({&span, nullptr, span.first_sequence,
                              span.end_sequence - span.first_sequence, 0});
    } else if (name == "serve.journal.append") {
      index.appends.push_back(&span);
    } else if (name == "serve.fleet.apply") {
      index.applies.push_back(&span);
    } else if (name == "serve.journal.sync") {
      index.syncs.push_back(&span);
    } else if (name == "serve.fleet.query") {
      index.queries.push_back(&span);
      index.queries_by_customer[span.customer].push_back(&span);
    } else if (name == "serve.backend.snapshot") {
      index.snapshots.push_back(&span);
    } else if (name == "serve.snapshot.write") {
      index.snapshot_writes.push_back(&span);
    } else if (name == "serve.journal.checkpoint") {
      index.checkpoints.push_back(&span);
    }
    if (span.parent != 0) child_ns[span.parent] += Duration(span);
  }
  std::sort(index.rounds.begin(), index.rounds.end(),
            [](const SpanIndex::RoundRef& a, const SpanIndex::RoundRef& b) {
              return a.first_sequence < b.first_sequence;
            });
  std::vector<const Round*> reports;
  for (const Round& round : traced.rounds) reports.push_back(&round);
  std::sort(reports.begin(), reports.end(),
            [](const Round* a, const Round* b) {
              return a->first_sequence < b->first_sequence;
            });
  for (size_t i = 0; i < index.rounds.size(); ++i) {
    SpanIndex::RoundRef& ref = index.rounds[i];
    ref.child_ns = child_ns[ref.span->id];
    if (i < reports.size() &&
        reports[i]->first_sequence == ref.first_sequence) {
      ref.round = reports[i];
    }
  }
  return index;
}

std::vector<double> DurationsUs(const std::vector<const Span*>& spans) {
  std::vector<double> out;
  for (const Span* span : spans) out.push_back(Us(Duration(*span)));
  return out;
}

std::vector<double> DurationsMs(const std::vector<const Span*>& spans) {
  std::vector<double> out;
  for (const Span* span : spans) out.push_back(Ms(Duration(*span)));
  return out;
}

int64_t TotalNs(const std::vector<const Span*>& spans) {
  int64_t total = 0;
  for (const Span* span : spans) total += Duration(*span);
  return total;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// The query span of `read`: same customer, inside the read's interval.
const Span* JoinRead(const SpanIndex& index, const ReadRecord& read) {
  const auto it = index.queries_by_customer.find(read.customer);
  if (it == index.queries_by_customer.end()) return nullptr;
  for (const Span* span : it->second) {
    if (span->start_ns >= read.send_ns && span->end_ns <= read.done_ns) {
      return span;
    }
  }
  return nullptr;
}

/// Bytes per receipt of the journal the server writes: the run's first
/// lap of rounds, with their exact boundaries, appended to a scratch
/// journal (sequences rebased to 0, which a fresh journal requires).
Result<double> JournalBytesPerReceipt(const SessionConfig& config,
                                      const std::vector<IngestRecord>& acked,
                                      const SpanIndex& index,
                                      uint64_t base_sequence) {
  const uint64_t limit = config.population->stream.size();
  std::vector<retail::Receipt> receipts;
  for (const IngestRecord& record : acked) {
    if (receipts.size() >= limit) break;
    AppendReceipts(*config.population,
                   (*config.clients)[record.client][record.request],
                   record.lap, &receipts);
  }
  const std::string directory = config.work_dir + "/bytes_journal";
  std::error_code ignored;
  fs::remove_all(directory, ignored);
  uint64_t appended = 0;
  {
    api::JournalOptions options;
    options.directory = directory;
    options.fsync = api::FsyncPolicy::kNone;
    CHURNLAB_ASSIGN_OR_RETURN(api::IngestJournal journal,
                              api::IngestJournal::Open(options));
    for (const SpanIndex::RoundRef& round : index.rounds) {
      const uint64_t begin = round.first_sequence - base_sequence;
      if (begin + round.receipts > receipts.size()) break;
      CHURNLAB_RETURN_NOT_OK(journal.Append(
          appended, std::span<const retail::Receipt>(receipts).subspan(
                        begin, round.receipts)));
      appended += round.receipts;
    }
  }
  uint64_t bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() == ".chlj") bytes += entry.file_size();
  }
  fs::remove_all(directory, ignored);
  return Ratio(static_cast<double>(bytes), static_cast<double>(appended));
}

/// Client-observed latencies of the timed window: per acknowledged ingest
/// request from its send, per read from its scheduled send time.
struct ClientLatencies {
  std::vector<double> ack_ms;
  std::vector<double> read_us;
  uint64_t acked_receipts = 0;
};

ClientLatencies TimedLatencies(const LoadResult& load) {
  ClientLatencies out;
  for (const IngestRecord& record : load.ingests) {
    if (!record.ok || !record.timed) continue;
    out.ack_ms.push_back(Ms(record.done_ns - record.send_ns));
    out.acked_receipts += record.receipts;
  }
  for (const ReadRecord& read : load.reads) {
    if (read.ok) out.read_us.push_back(Us(read.done_ns - read.scheduled_ns));
  }
  return out;
}

}  // namespace

std::vector<Metric> EndToEndMetrics(
    const SessionResult& session, const api::StateMemoryStats& history_state) {
  const ClientLatencies latencies = TimedLatencies(session.load);
  const double timed_s =
      static_cast<double>(session.load.end_ns - session.load.t0_ns) * 1e-9;
  const size_t acks = latencies.ack_ms.size();
  const size_t reads = latencies.read_us.size();
  return {
      {"durable_receipts_per_s",
       Ratio(static_cast<double>(latencies.acked_receipts), timed_s),
       "receipts/s", acks},
      {"ack_p50_ms", Quantile(latencies.ack_ms, 0.50), "ms", acks},
      {"ack_p90_ms", Quantile(latencies.ack_ms, 0.90), "ms", acks},
      {"read_p50_us", Quantile(latencies.read_us, 0.50), "us", reads},
      {"setup_s", Median(session.setup_s), "s", session.setup_s.size()},
      {"state_bytes_per_customer",
       Ratio(static_cast<double>(history_state.total_bytes),
             static_cast<double>(history_state.customers)),
       "bytes", history_state.customers},
  };
}

double ReadLateP99Us(const SessionResult& session) {
  std::vector<double> late_us;
  for (const ReadRecord& read : session.load.reads) {
    late_us.push_back(Us(read.send_ns - read.scheduled_ns));
  }
  return Quantile(late_us, 0.99);
}

double ReadRateAchieved(const SessionResult& session) {
  int64_t last = session.load.t0_ns;
  for (const ReadRecord& read : session.load.reads) {
    last = std::max(last, read.done_ns);
  }
  return Ratio(static_cast<double>(session.load.reads.size()),
               static_cast<double>(last - session.load.t0_ns) * 1e-9);
}

Result<TraceAnalysis> AnalyzeTrace(const SessionConfig& config,
                                   const SessionResult& untraced,
                                   const SessionResult& traced) {
  TraceAnalysis out;
  const SpanIndex index = IndexSpans(traced);
  const std::vector<IngestRecord> acked = AckedBySequence(traced.load);
  const auto fail = [&](std::string message) {
    if (out.join_failures.size() < 10) {
      out.join_failures.push_back(std::move(message));
    }
  };

  // Requests join the round whose sequence range holds theirs; the
  // joined requests must cover every round exactly.
  std::vector<const SpanIndex::RoundRef*> request_round(acked.size());
  std::vector<uint64_t> covered(index.rounds.size(), 0);
  for (size_t i = 0; i < acked.size(); ++i) {
    const IngestRecord& request = acked[i];
    const SpanIndex::RoundRef* round =
        Covering(index.rounds, request.first_sequence);
    if (round == nullptr || request.first_sequence + request.receipts >
                                round->first_sequence + round->receipts) {
      fail("request at sequence " + std::to_string(request.first_sequence) +
           " joins no round");
      continue;
    }
    request_round[i] = round;
    covered[static_cast<size_t>(round - index.rounds.data())] +=
        request.receipts;
  }
  for (size_t r = 0; r < index.rounds.size(); ++r) {
    if (covered[r] != index.rounds[r].receipts) {
      fail("round at sequence " +
           std::to_string(index.rounds[r].first_sequence) + " covers " +
           std::to_string(index.rounds[r].receipts) +
           " receipts, its requests " + std::to_string(covered[r]));
    }
  }

  // Replays of the run's own requests, after the load stopped.
  size_t wires = 0;
  uint64_t wire_bytes = 0, lap_receipts = 0;
  int64_t parse_ns = 0, decode_ns = 0;
  for (const std::vector<IngestRequest>& client : *config.clients) {
    for (const IngestRequest& request : client) {
      const std::string_view wire = request.wire;
      int64_t start = NowNs();
      net::HttpParser parser((net::HttpParser::Limits()));
      for (size_t at = 0; at < wire.size(); at += 8192) {
        CHURNLAB_RETURN_NOT_OK(parser.Feed(wire.substr(at, 8192)));
      }
      if (!parser.HasRequest()) {
        return Status::Internal("parse replay did not complete a request");
      }
      const net::HttpRequest parsed = parser.TakeRequest();
      parse_ns += NowNs() - start;
      start = NowNs();
      CHURNLAB_ASSIGN_OR_RETURN(
          const std::vector<retail::Receipt> decoded,
          net::ParseReceiptBatch(wire.substr(request.body_offset),
                                 request.receipts.size()));
      decode_ns += NowNs() - start;
      if (parsed.body.size() + request.body_offset != wire.size() ||
          decoded.size() != request.receipts.size()) {
        return Status::Internal("replayed request does not round-trip");
      }
      ++wires;
      wire_bytes += wire.size();
      lap_receipts += request.receipts.size();
    }
  }
  std::vector<serve::BatchReport> slices;
  for (size_t i = 0; i < acked.size(); ++i) {
    const SpanIndex::RoundRef* round = request_round[i];
    if (round == nullptr || round->round == nullptr) continue;
    const size_t begin = acked[i].first_sequence - round->first_sequence;
    slices.push_back(serve::SliceBatchReport(round->round->report, begin,
                                             begin + acked[i].receipts));
  }
  int64_t encode_ns = 0;
  size_t encoded_bytes = 0;
  {
    const int64_t start = NowNs();
    for (size_t i = 0; i < slices.size(); ++i) {
      encoded_bytes += net::WriteBatchReportJson(slices[i], i).size();
    }
    encode_ns = NowNs() - start;
  }
  if (!slices.empty() && encoded_bytes == 0) {
    return Status::Internal("encode replay produced no bytes");
  }
  const double parse_ns_per_request =
      Ratio(static_cast<double>(parse_ns), static_cast<double>(wires));
  const double decode_ns_per_receipt =
      Ratio(static_cast<double>(decode_ns), static_cast<double>(lap_receipts));
  const double encode_ns_per_response = Ratio(
      static_cast<double>(encode_ns), static_cast<double>(slices.size()));

  // What the replays and the backend round leave of each request's ack
  // latency: socket time, worker scheduling, coalescer wait.
  std::vector<double> unattributed_us;
  int64_t client_self_ns = 0;
  for (size_t i = 0; i < acked.size(); ++i) {
    const SpanIndex::RoundRef* round = request_round[i];
    if (round == nullptr) continue;
    const int64_t latency = acked[i].done_ns - acked[i].send_ns;
    const int64_t round_ns = Duration(*round->span);
    client_self_ns += latency - round_ns;
    if (!acked[i].timed) continue;
    const double replayed_ns =
        parse_ns_per_request +
        decode_ns_per_receipt * static_cast<double>(acked[i].receipts) +
        encode_ns_per_response;
    unattributed_us.push_back(
        (static_cast<double>(latency - round_ns) - replayed_ns) * 1e-3);
  }

  std::vector<double> read_unattributed_us;
  int64_t read_self_ns = 0;
  size_t joined_reads = 0;
  for (const ReadRecord& read : traced.load.reads) {
    if (!read.ok) continue;
    const Span* query = JoinRead(index, read);
    if (query == nullptr) {
      fail("read of customer " + std::to_string(read.customer) +
           " joins no query");
      continue;
    }
    const int64_t self = read.done_ns - read.send_ns - Duration(*query);
    read_self_ns += self;
    ++joined_reads;
    read_unattributed_us.push_back(Us(self));
  }

  // Fleet outcomes. Alerts are counted for the session's first lap only:
  // they depend on each customer's own history, so the count is fixed for
  // a seed however the clients interleave.
  uint64_t round_receipts = 0, rejected = 0, first_lap_alerts = 0;
  uint64_t first_lap_receipts = 0;
  const int64_t first_lap = acked.empty() ? 0 : [&] {
    int64_t lap = acked.front().lap;
    for (const IngestRecord& record : acked) lap = std::min(lap, record.lap);
    return lap;
  }();
  for (const IngestRecord& record : acked) {
    if (record.lap == first_lap) first_lap_receipts += record.receipts;
  }
  for (const Round& round : traced.rounds) {
    round_receipts += round.end_sequence - round.first_sequence;
    rejected += round.report.rejected.size();
    for (const serve::FleetAlert& alert : round.report.alerts) {
      const IngestRecord* request =
          Covering(acked, round.first_sequence + alert.batch_index);
      if (request != nullptr && request->lap == first_lap) ++first_lap_alerts;
    }
  }

  CHURNLAB_ASSIGN_OR_RETURN(
      const double journal_bytes_per_receipt,
      JournalBytesPerReceipt(config, acked, index, traced.base_sequence));

  const ClientLatencies untraced_latencies = TimedLatencies(untraced.load);
  const double server_cpu_s =
      untraced.load.process_cpu_s - untraced.load.client_cpu_s;

  const size_t rounds = index.rounds.size();
  const double requests = static_cast<double>(acked.size());
  std::vector<double> round_us;
  for (const SpanIndex::RoundRef& round : index.rounds) {
    round_us.push_back(Us(Duration(*round.span)));
  }
  const std::vector<double> query_us = DurationsUs(index.queries);
  out.per_layer = {
      // These tails swing from run to run far more than an end-to-end
      // bound could allow, so they are tracked here rather than gated
      // (README.md).
      {"ack_p99_ms", Quantile(untraced_latencies.ack_ms, 0.99), "ms",
       untraced_latencies.ack_ms.size()},
      {"read_p90_us", Quantile(untraced_latencies.read_us, 0.90), "us",
       untraced_latencies.read_us.size()},
      {"read_p99_us", Quantile(untraced_latencies.read_us, 0.99), "us",
       untraced_latencies.read_us.size()},
      {"retail.dataset_load_s", Median(untraced.dataset_load_s), "s",
       untraced.dataset_load_s.size()},
      {"net.http.parse_ns_per_request", parse_ns_per_request, "ns", wires},
      {"net.json.decode_ns_per_receipt", decode_ns_per_receipt, "ns",
       lap_receipts},
      {"net.json.encode_ns_per_response", encode_ns_per_response, "ns",
       slices.size()},
      {"net.http.request_bytes_per_receipt",
       Ratio(static_cast<double>(wire_bytes),
             static_cast<double>(lap_receipts)),
       "bytes", lap_receipts},
      {"net.coalescer.requests_per_round",
       Ratio(requests, static_cast<double>(rounds)), "count", rounds},
      {"net.coalescer.receipts_per_round",
       Ratio(static_cast<double>(round_receipts),
             static_cast<double>(rounds)),
       "count", rounds},
      {"net.unattributed_us_per_request", Median(unattributed_us), "us",
       unattributed_us.size()},
      {"net.read.unattributed_us", Median(read_unattributed_us), "us",
       read_unattributed_us.size()},
      {"serve.journal.append_ns_per_receipt",
       Ratio(static_cast<double>(TotalNs(index.appends)),
             static_cast<double>(round_receipts)),
       "ns", index.appends.size()},
      {"serve.journal.sync_us_per_round",
       Ratio(Us(TotalNs(index.syncs)), static_cast<double>(rounds)), "us",
       index.syncs.size()},
      {"serve.journal.syncs_per_1k_requests",
       Ratio(static_cast<double>(index.syncs.size()) * 1000.0, requests),
       "count", acked.size()},
      {"serve.journal.bytes_per_receipt", journal_bytes_per_receipt, "bytes",
       1},
      {"serve.journal.scan_s", traced.scan_s, "s", 1},
      {"serve.fleet.apply_ns_per_receipt",
       Ratio(static_cast<double>(TotalNs(index.applies)),
             static_cast<double>(round_receipts)),
       "ns", index.applies.size()},
      {"serve.fleet.replay_s", traced.replay_s, "s", 1},
      {"serve.fleet.query_us_p50", Quantile(query_us, 0.50), "us",
       query_us.size()},
      {"serve.fleet.query_us_p99", Quantile(query_us, 0.99), "us",
       query_us.size()},
      {"serve.backend.round_us_p50", Quantile(round_us, 0.50), "us", rounds},
      {"serve.backend.round_us_p99", Quantile(round_us, 0.99), "us", rounds},
      {"serve.snapshot.write_ms", Median(DurationsMs(index.snapshot_writes)),
       "ms", index.snapshot_writes.size()},
      {"serve.journal.checkpoint_ms", Median(DurationsMs(index.checkpoints)),
       "ms", index.checkpoints.size()},
      {"serve.fleet.rejected_share",
       Ratio(static_cast<double>(rejected),
             static_cast<double>(round_receipts)),
       "share", round_receipts},
      {"serve.fleet.alerts_per_1k_receipts",
       Ratio(static_cast<double>(first_lap_alerts) * 1000.0,
             static_cast<double>(first_lap_receipts)),
       "count", first_lap_receipts},
      {"serve.state.bytes_total",
       static_cast<double>(untraced.state_bytes_total), "bytes", 1},
      {"process.server_cpu_us_per_receipt",
       Ratio(server_cpu_s * 1e6,
             static_cast<double>(untraced_latencies.acked_receipts)),
       "us", untraced_latencies.acked_receipts},
      {"loadgen.read_late_p99_us", ReadLateP99Us(untraced), "us",
       untraced.load.reads.size()},
      {"loadgen.read_rate_achieved", ReadRateAchieved(untraced), "1/s",
       untraced.load.reads.size()},
  };

  int64_t round_self_ns = 0;
  for (const SpanIndex::RoundRef& round : index.rounds) {
    round_self_ns += Duration(*round.span) - round.child_ns;
  }
  int64_t snapshot_self_ns = TotalNs(index.snapshots) -
                             TotalNs(index.snapshot_writes) -
                             TotalNs(index.checkpoints);
  out.self_times = {
      {"client.ingest (socket, HTTP, JSON, coalescer wait)",
       Us(client_self_ns), acked.size()},
      {"serve.backend.round", Us(round_self_ns), rounds},
      {"serve.journal.append", Us(TotalNs(index.appends)),
       index.appends.size()},
      {"serve.fleet.apply", Us(TotalNs(index.applies)), index.applies.size()},
      {"serve.journal.sync", Us(TotalNs(index.syncs)), index.syncs.size()},
      {"client.read (socket, HTTP, JSON)", Us(read_self_ns), joined_reads},
      {"serve.fleet.query", Us(TotalNs(index.queries)), index.queries.size()},
      {"serve.backend.snapshot", Us(snapshot_self_ns),
       index.snapshots.size()},
      {"serve.snapshot.write", Us(TotalNs(index.snapshot_writes)),
       index.snapshot_writes.size()},
      {"serve.journal.checkpoint", Us(TotalNs(index.checkpoints)),
       index.checkpoints.size()},
  };
  return out;
}

Status WriteTrace(const SessionResult& traced, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = traced.load.t0_ns;
  uint64_t next_id = 1;
  for (const Span& span : traced.spans) {
    origin = std::min(origin, span.start_ns);
    next_id = std::max(next_id, span.id + 1);
  }
  for (const IngestRecord& record : traced.load.ingests) {
    origin = std::min(origin, record.send_ns);
  }
  const auto write = [&](const char* name, uint64_t id, uint64_t parent,
                         int64_t start, int64_t end, const char* extra) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "%s}\n",
                 name, id, parent, start - origin, end - origin, extra);
  };
  char extra[96];
  for (const Span& span : traced.spans) {
    if (span.customer != retail::kInvalidCustomer) {
      std::snprintf(extra, sizeof(extra), ",\"customer\":%" PRIu32,
                    span.customer);
    } else {
      std::snprintf(extra, sizeof(extra),
                    ",\"first_sequence\":%" PRIu64 ",\"end_sequence\":%" PRIu64,
                    span.first_sequence, span.end_sequence);
    }
    write(span.name, span.id, span.parent, span.start_ns, span.end_ns, extra);
  }
  for (const IngestRecord& record : traced.load.ingests) {
    if (!record.ok) continue;
    std::snprintf(extra, sizeof(extra),
                  ",\"first_sequence\":%" PRIu64 ",\"end_sequence\":%" PRIu64,
                  record.first_sequence,
                  record.first_sequence + record.receipts);
    write("client.ingest", next_id++, 0, record.send_ns, record.done_ns,
          extra);
  }
  for (const ReadRecord& read : traced.load.reads) {
    std::snprintf(extra, sizeof(extra), ",\"customer\":%" PRIu32,
                  read.customer);
    write("client.read", next_id++, 0, read.send_ns, read.done_ns, extra);
  }
  for (const SnapshotRecord& snapshot : traced.load.snapshots) {
    write("client.snapshot", next_id++, 0, snapshot.send_ns, snapshot.done_ns,
          "");
  }
  const bool ok = std::fflush(file) == 0;
  std::fclose(file);
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

}  // namespace e2e
}  // namespace churnlab
