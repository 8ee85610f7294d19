// End-to-end benchmark of durable ingest, live reads and crash recovery
// through the production HTTP server (README.md).
//
//   churnlab_e2e --seed=S --out=DIR [--workload=NAME] [--trace]
//                [--seconds=N] [--scale=full|smoke]
//
// Prints one `workload metric value unit` line per metric, writes
// DIR/result.json (DIR/<workload>/result.json when every workload runs)
// and, with --trace, DIR/trace.jsonl, then prints one JSON summary as its
// last line. Exits 1 when an output check fails.

#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/macros.h"
#include "inputs.h"
#include "metrics.h"
#include "obs/json.h"
#include "session.h"

namespace churnlab {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// Workload names are cited by later changes; keep them stable.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "durable_bulk",
     .why = "closed loop, 2 clients x 1024 receipts/request, checkpoint per "
            "1M acked, 500 reads/s: the headline path, where JSON decode, "
            "fleet apply and journal bytes dominate",
     .clients = 2,
     .receipts_per_request = 1024,
     .read_rate = 500.0,
     .snapshots = true},
    {.name = "durable_small",
     .why = "closed loop, 3 clients x 16 receipts/request on a 2k-customer "
            "hot set, 500 reads/s: per-request costs (socket, HTTP, "
            "coalescer hand-off, one fsync per round) dominate",
     .small_population = true,
     .clients = 3,
     .receipts_per_request = 16,
     .read_rate = 500.0},
    {.name = "read_mix",
     .why = "open-loop reads at 2000/s beside 1 closed-loop client x 256 "
            "receipts/request: reads and writes share shard locks and "
            "workers, with one fsync per request",
     .clients = 1,
     .receipts_per_request = 256,
     .read_rate = 2000.0,
     .validate_reads = true},
    {.name = "recover",
     .why = "start-up replays a 2-lap journal (about 2M receipts, no "
            "checkpoint) before serving 2 x 1024 and 500 reads/s: journal "
            "scan and fleet replay set setup_s",
     .clients = 2,
     .receipts_per_request = 1024,
     .read_rate = 500.0,
     .recover = true},
};

// `full` keeps one run of a workload at about 15-30 s (data generation,
// server starts, the 12 s window and the output checks), so the whole
// benchmark fits its time budget. The bulk population's customer state
// (about 15 MB) exceeds a core's 2 MiB L2 and fits the L3.
constexpr Scale kScales[] = {
    {.name = "full",
     .customers = 10000,
     .small_customers = 2000,
     .snapshot_every = 1000000,
     .default_seconds = 12.0},
    {.name = "smoke",
     .customers = 300,
     .small_customers = 100,
     .snapshot_every = 20000,
     .default_seconds = 0.5},
};

/// Receipts per frame of recover's journal, as the server's coalesced
/// rounds of one 1024-receipt request would be.
constexpr size_t kJournalFrameReceipts = 1024;

/// read_mix's load-generator limits: beyond them the run measured the
/// generator, not the server. An invalid session is repeated once; a run
/// still invalid after that is reported with `"valid": false`, which
/// compare.py leaves out. It does not fail the run: on a shared host the
/// whole virtual machine stalls for milliseconds at a time (2-9 ms seen,
/// through seven sessions in a row, with the reader at any scheduling
/// priority), and the reader is then late through no fault of its own or
/// the server's. More repeats would rarely help then, and each costs a
/// session's time.
constexpr double kMaxReadLateP99Us = 1000.0;
constexpr double kMaxReadRateMiss = 0.02;
constexpr int kMaxInvalidRepeats = 1;

struct Options {
  uint64_t seed = 1;
  std::string out;
  std::string workload;
  bool trace = false;
  double seconds = 0.0;
  std::string scale = "full";
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the final summary line.
  std::vector<Metric> reported;
};

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void CountRequests(const SessionResult& session, Outcome* outcome) {
  const LoadResult& load = session.load;
  outcome->attempted +=
      load.ingests.size() + load.reads.size() + load.snapshots.size();
  for (const IngestRecord& record : load.ingests) {
    outcome->failed += record.ok ? 0 : 1;
  }
  for (const ReadRecord& record : load.reads) {
    outcome->failed += record.ok ? 0 : 1;
  }
  for (const SnapshotRecord& record : load.snapshots) {
    outcome->failed += record.ok ? 0 : 1;
  }
}

void WriteMetrics(const std::vector<Metric>& metrics, obs::JsonWriter* json) {
  json->BeginObject();
  for (const Metric& metric : metrics) {
    json->Key(metric.name)
        .BeginObject()
        .Key("value")
        .Double(metric.value)
        .Key("unit")
        .String(metric.unit)
        .Key("samples")
        .Uint(metric.samples)
        .EndObject();
  }
  json->EndObject();
}

std::vector<std::string> ValidityFailures(const WorkloadSpec& spec,
                                          const SessionResult& session) {
  std::vector<std::string> failures;
  if (!spec.validate_reads) return failures;
  const double late_p99_us = ReadLateP99Us(session);
  const double read_rate = ReadRateAchieved(session);
  if (late_p99_us > kMaxReadLateP99Us) {
    failures.push_back("reads sent " +
                       std::to_string(late_p99_us) +
                       " us late at p99 (limit 1000)");
  }
  if (std::fabs(read_rate / spec.read_rate - 1.0) > kMaxReadRateMiss) {
    failures.push_back("achieved " + std::to_string(read_rate) +
                       " reads/s of " + std::to_string(spec.read_rate));
  }
  return failures;
}

Result<Outcome> RunWorkload(const WorkloadSpec& spec, const Scale& scale,
                            const Options& options,
                            const std::string& out_dir) {
  const double seconds =
      options.seconds > 0 ? options.seconds : scale.default_seconds;
  const std::string work = out_dir + "/work";
  std::error_code ignored;
  fs::remove_all(work, ignored);
  fs::create_directories(work);

  CHURNLAB_ASSIGN_OR_RETURN(
      const Population population,
      MakePopulation(
          spec.small_population ? scale.small_customers : scale.customers,
          options.seed, work + "/data.clb"));
  std::vector<std::vector<IngestRequest>> clients =
      PlanClients(population, spec.clients, spec.receipts_per_request);

  SessionConfig config;
  config.spec = &spec;
  config.scale = &scale;
  config.population = &population;
  config.clients = &clients;
  config.seconds = seconds;
  config.seed = options.seed;
  // setup_s is the median of 5 starts, or of 3 on recover, where each
  // start replays 2M receipts.
  config.unserved_starts = spec.recover ? 2 : 4;
  if (spec.recover) {
    config.pristine_journal = work + "/journal.pristine";
    config.journal_oracle_snapshot = work + "/journal_oracle.snap";
    CHURNLAB_ASSIGN_OR_RETURN(
        config.journaled_receipts,
        WriteJournal(population, kHistoryLaps, kJournalFrameReceipts,
                     config.pristine_journal));
  }
  // The served fleet's memory grows with the laps the timed window
  // reached, so the state metric is taken after a fixed history instead;
  // for recover this fleet is also the journal's offline replay.
  CHURNLAB_ASSIGN_OR_RETURN(
      const api::StateMemoryStats history_state,
      ReplayLaps(population, kHistoryLaps,
                 config.journal_oracle_snapshot));

  Outcome outcome;
  config.work_dir = work + "/untraced";
  SessionResult untraced;
  std::vector<std::string> invalid;
  int invalid_sessions = 0;
  for (;;) {
    CHURNLAB_ASSIGN_OR_RETURN(untraced, RunSession(config));
    CountRequests(untraced, &outcome);
    invalid = ValidityFailures(spec, untraced);
    // Only a session whose outputs all checked out may be discarded.
    if (invalid.empty() || !untraced.check_failures.empty() ||
        invalid_sessions == kMaxInvalidRepeats) {
      break;
    }
    ++invalid_sessions;
    std::fprintf(stderr, "%s: session invalid (%s); repeating it\n",
                 spec.name, invalid.front().c_str());
  }
  for (const std::string& reason : invalid) {
    std::fprintf(stderr, "%s: run marked invalid: %s\n", spec.name,
                 reason.c_str());
  }
  std::vector<std::string> failures = untraced.check_failures;
  const std::vector<Metric> end_to_end =
      EndToEndMetrics(untraced, history_state);

  TraceAnalysis analysis;
  double traced_rate = 0.0;
  if (options.trace) {
    config.work_dir = work + "/traced";
    config.unserved_starts = 0;
    config.traced = true;
    CHURNLAB_ASSIGN_OR_RETURN(const SessionResult traced, RunSession(config));
    CountRequests(traced, &outcome);
    failures.insert(failures.end(), traced.check_failures.begin(),
                    traced.check_failures.end());
    CHURNLAB_ASSIGN_OR_RETURN(analysis,
                              AnalyzeTrace(config, untraced, traced));
    failures.insert(failures.end(), analysis.join_failures.begin(),
                    analysis.join_failures.end());
    CHURNLAB_RETURN_NOT_OK(WriteTrace(traced, out_dir + "/trace.jsonl"));
    traced_rate = EndToEndMetrics(traced, history_state).front().value;
  }
  outcome.correct = failures.empty() && outcome.failed == 0;
  outcome.reported = options.trace ? analysis.per_layer : end_to_end;

  obs::JsonWriter json;
  json.BeginObject()
      .Key("workload")
      .String(spec.name)
      .Key("seed")
      .Uint(options.seed)
      .Key("scale")
      .String(scale.name)
      .Key("seconds")
      .Double(seconds)
      .Key("trace")
      .Bool(options.trace)
      .Key("correct")
      .Bool(outcome.correct)
      .Key("attempted")
      .Uint(outcome.attempted)
      .Key("failed")
      .Uint(outcome.failed)
      .Key("valid")
      .Bool(invalid.empty());
  json.Key("check_failures").BeginArray();
  for (const std::string& failure : failures) json.String(failure);
  json.EndArray();
  json.Key("validity_failures").BeginArray();
  for (const std::string& reason : invalid) json.String(reason);
  json.EndArray();
  json.Key("workload_spec")
      .BeginObject()
      .Key("ingest_loop")
      .String("closed")
      .Key("ingest_clients")
      .Uint(spec.clients)
      .Key("receipts_per_request")
      .Uint(spec.receipts_per_request)
      .Key("read_loop")
      .String("open")
      .Key("read_rate_per_s")
      .Double(spec.read_rate)
      .Key("snapshot_every_receipts")
      .Uint(spec.snapshots ? scale.snapshot_every : 0)
      .Key("customers")
      .Uint(population.customers.size())
      .Key("receipts_per_lap")
      .Uint(population.stream.size())
      .Key("recovered_receipts")
      .Uint(config.journaled_receipts)
      .Key("why")
      .String(spec.why)
      .EndObject();
  json.Key("env")
      .BeginObject()
      .Key("nproc")
      .Uint(std::thread::hardware_concurrency())
      .Key("build_type")
      .String(CHURNLAB_E2E_BUILD_TYPE)
      .Key("git_sha")
      .String(CHURNLAB_E2E_GIT_SHA)
      .Key("work_fs")
      .String(FilesystemType(work))
      .Key("server")
      .String("serve-http defaults, journal fsync=batch, append snapshots")
      .EndObject();
  json.Key("metrics");
  WriteMetrics(end_to_end, &json);
  json.Key("served_state")
      .BeginObject()
      .Key("bytes_total")
      .Uint(untraced.state_bytes_total)
      .Key("customers")
      .Uint(untraced.customers)
      .EndObject();
  json.Key("loadgen")
      .BeginObject()
      .Key("read_late_p99_us")
      .Double(ReadLateP99Us(untraced))
      .Key("read_rate_achieved")
      .Double(ReadRateAchieved(untraced))
      .Key("invalid_sessions_repeated")
      .Uint(static_cast<uint64_t>(invalid_sessions))
      .EndObject();
  if (options.trace) {
    json.Key("per_layer");
    WriteMetrics(analysis.per_layer, &json);
    json.Key("self_time_us").BeginObject();
    for (const LayerTime& layer : analysis.self_times) {
      json.Key(layer.layer)
          .BeginObject()
          .Key("total")
          .Double(layer.self_us_total)
          .Key("calls")
          .Uint(layer.calls)
          .Key("per_call")
          .Double(layer.calls > 0 ? layer.self_us_total /
                                        static_cast<double>(layer.calls)
                                  : 0.0)
          .EndObject();
    }
    json.EndObject();
    const double untraced_rate = end_to_end.front().value;
    json.Key("trace_overhead")
        .BeginObject()
        .Key("traced_durable_receipts_per_s")
        .Double(traced_rate)
        .Key("traced_minus_untraced")
        .Double(traced_rate - untraced_rate)
        .Key("share")
        .Double((traced_rate - untraced_rate) / untraced_rate)
        .EndObject();
  }
  json.EndObject();
  std::ofstream(out_dir + "/result.json") << json.str() << "\n";

  for (const Metric& metric : end_to_end) {
    std::printf("%s %s %.17g %s\n", spec.name, metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  for (const Metric& metric : analysis.per_layer) {
    std::printf("%s %s %.17g %s\n", spec.name, metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "%s: check failed: %s\n", spec.name,
                 failure.c_str());
  }
  fs::remove_all(work, ignored);
  return outcome;
}

int Main(int argc, char** argv) {
  Options options;
  FlagParser parser(
      "churnlab_e2e: end-to-end benchmark of durable ingest, live reads and "
      "crash recovery through the production HTTP server");
  parser.AddUint64("seed", 1, "input seed (same seed, same inputs)",
                   &options.seed);
  parser.AddString("out", "", "output directory (result.json, trace.jsonl)",
                   &options.out);
  parser.AddString("workload", "",
                   "durable_bulk|durable_small|read_mix|recover (empty: all)",
                   &options.workload);
  parser.AddBool("trace", false,
                 "also run the traced session and report per-layer metrics",
                 &options.trace);
  parser.AddDouble("seconds", 0.0,
                   "timed window per session (0: the scale's default)",
                   &options.seconds);
  parser.AddString("scale", "full", "full|smoke", &options.scale);
  const Status parsed = parser.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (options.out.empty()) {
    std::fprintf(stderr, "--out is required\n%s", parser.Usage().c_str());
    return 2;
  }
  const Scale* scale = nullptr;
  for (const Scale& candidate : kScales) {
    if (options.scale == candidate.name) scale = &candidate;
  }
  std::vector<const WorkloadSpec*> workloads;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (options.workload.empty() || options.workload == spec.name) {
      workloads.push_back(&spec);
    }
  }
  if (scale == nullptr || workloads.empty()) {
    std::fprintf(stderr, "unknown --scale or --workload\n%s",
                 parser.Usage().c_str());
    return 2;
  }

  Outcome total;
  std::vector<Metric> reported;
  for (const WorkloadSpec* spec : workloads) {
    const std::string out_dir = options.workload.empty()
                                    ? options.out + "/" + spec->name
                                    : options.out;
    fs::create_directories(out_dir);
    const Result<Outcome> outcome =
        RunWorkload(*spec, *scale, options, out_dir);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec->name,
                   outcome.status().ToString().c_str());
      return 1;
    }
    total.correct = total.correct && outcome->correct;
    total.attempted += outcome->attempted;
    total.failed += outcome->failed;
    for (Metric metric : outcome->reported) {
      if (workloads.size() > 1) metric.name = spec->name + ("." + metric.name);
      reported.push_back(std::move(metric));
    }
  }

  obs::JsonWriter json;
  json.BeginObject()
      .Key("correct")
      .Bool(total.correct)
      .Key("attempted")
      .Uint(total.attempted)
      .Key("failed")
      .Uint(total.failed)
      .Key("metrics")
      .BeginObject();
  for (const Metric& metric : reported) {
    json.Key(metric.name)
        .BeginObject()
        .Key("value")
        .Double(metric.value)
        .Key("unit")
        .String(metric.unit)
        .EndObject();
  }
  json.EndObject().EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace churnlab

int main(int argc, char** argv) { return churnlab::e2e::Main(argc, argv); }
