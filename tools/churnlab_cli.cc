// churnlab — command-line front end for the library.
//
// Subcommands:
//   simulate      generate a synthetic retail dataset and save it
//   stats         print dataset statistics
//   score         compute per-customer stability scores (CSV out)
//   explain       per-window stability walk-through for one customer
//   profile       a customer's ranked significant-product table
//   evaluate      stability vs RFM detection AUROC by month
//   forecast      out-of-fold AUROC of future-defection prediction
//   gridsearch    5-fold CV search over (window span, alpha)
//   serve-replay  replay a dataset through the sharded scoring fleet
//   serve-http    run the HTTP/1.1 scoring front end over a fleet
//   flood         stream a dataset into a running serve-http, in day order
//                 over one connection or split by customer over several
//
// Datasets are addressed by path: `x.clb` loads the binary format, any
// other value is treated as a CSV prefix (x.receipts.csv / x.taxonomy.csv /
// x.labels.csv).
//
// Everything model-facing goes through the churnlab::api facade
// (src/churnlab.h); only flag parsing, logging and telemetry plumbing come
// from elsewhere.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "churnlab.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/export.h"
#include "obs/fault_obs.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot.h"
#include "obs/structured_log.h"
#include "obs/trace.h"

namespace churnlab {
namespace {

Result<api::Dataset> LoadDataset(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("--data is required");
  }
  return api::LoadDataset(path);
}

Status RunSimulate(int argc, const char* const* argv) {
  FlagParser parser("churnlab simulate: generate a synthetic dataset");
  std::string out;
  uint64_t loyal, defecting, seed;
  int64_t months, onset;
  bool csv;
  parser.AddString("out", "", "output path (.clb) or CSV prefix with --csv",
                   &out);
  parser.AddUint64("loyal", 1000, "loyal customers", &loyal);
  parser.AddUint64("defecting", 1000, "defecting customers", &defecting);
  parser.AddInt64("months", 28, "observation months", &months);
  parser.AddInt64("onset", 18, "attrition onset month", &onset);
  parser.AddUint64("seed", 42, "simulation seed", &seed);
  parser.AddBool("csv", false, "write CSV files instead of binary", &csv);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  if (out.empty()) return Status::InvalidArgument("--out is required");

  api::ScenarioConfig config;
  config.population.num_loyal = loyal;
  config.population.num_defecting = defecting;
  config.num_months = static_cast<int32_t>(months);
  config.population.attrition.onset_month = static_cast<int32_t>(onset);
  config.seed = seed;
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::MakeScenario(config));
  if (csv) {
    CHURNLAB_RETURN_NOT_OK(dataset.SaveCsv(out));
    std::printf("wrote %s.{receipts,taxonomy,labels}.csv\n", out.c_str());
  } else {
    CHURNLAB_RETURN_NOT_OK(dataset.SaveBinary(out));
    std::printf("wrote %s\n", out.c_str());
  }
  std::printf("%s", dataset.ComputeStats().ToString().c_str());
  return Status::OK();
}

Status RunStats(int argc, const char* const* argv) {
  FlagParser parser("churnlab stats: print dataset statistics");
  std::string data;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));
  std::printf("%s", dataset.ComputeStats().ToString().c_str());
  return Status::OK();
}

Status RunScore(int argc, const char* const* argv) {
  FlagParser parser("churnlab score: per-customer stability scores");
  std::string data, out;
  double alpha;
  int64_t window;
  uint64_t threads;
  bool products;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddString("out", "", "output CSV (stdout summary if empty)", &out);
  parser.AddDouble("alpha", 2.0, "significance alpha", &alpha);
  parser.AddInt64("window", 2, "window span in months", &window);
  parser.AddUint64("threads", 1, "worker threads (same output for any count)",
                   &threads);
  parser.AddBool("products", false,
                 "observe raw products instead of taxonomy segments",
                 &products);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::ScorerOptions options;
  options.significance.alpha = alpha;
  options.window_span_months = static_cast<int32_t>(window);
  options.num_threads = static_cast<size_t>(threads);
  options.granularity = products ? api::Granularity::kProduct
                                 : api::Granularity::kSegment;
  CHURNLAB_ASSIGN_OR_RETURN(const api::ScorerHandle scorer,
                            api::ScorerHandle::Make(options));
  CHURNLAB_ASSIGN_OR_RETURN(const api::ScoreMatrix scores,
                            scorer.ScoreDataset(dataset));

  if (out.empty()) {
    std::printf("scored %zu customers x %d windows (alpha=%.2f, w=%lld)\n",
                scores.num_rows(), scores.num_windows(), alpha,
                static_cast<long long>(window));
  } else {
    CHURNLAB_RETURN_NOT_OK(scores.SaveCsv(out));
    std::printf("wrote %s\n", out.c_str());
  }
  return Status::OK();
}

Status RunExplain(int argc, const char* const* argv) {
  FlagParser parser("churnlab explain: per-window analysis of one customer");
  std::string data;
  uint64_t customer;
  double alpha;
  int64_t window, top;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddUint64("customer", 0, "customer id", &customer);
  parser.AddDouble("alpha", 2.0, "significance alpha", &alpha);
  parser.AddInt64("window", 2, "window span in months", &window);
  parser.AddInt64("top", 5, "missing products listed per window", &top);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::ScorerOptions options;
  options.significance.alpha = alpha;
  options.window_span_months = static_cast<int32_t>(window);
  options.explanation.top_k = static_cast<size_t>(top);
  CHURNLAB_ASSIGN_OR_RETURN(const api::ScorerHandle scorer,
                            api::ScorerHandle::Make(options));
  CHURNLAB_ASSIGN_OR_RETURN(
      const api::CustomerReport report,
      scorer.AnalyzeCustomer(dataset,
                             static_cast<api::CustomerId>(customer)));
  std::printf("%s", report.ToString().c_str());
  return Status::OK();
}

Status RunProfile(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab profile: a customer's significant-product table");
  std::string data;
  uint64_t customer;
  double alpha;
  int64_t window_span, window, top;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddUint64("customer", 0, "customer id", &customer);
  parser.AddDouble("alpha", 2.0, "significance alpha", &alpha);
  parser.AddInt64("window", 2, "window span in months", &window_span);
  parser.AddInt64("at", -1, "window index to profile (-1 = last)", &window);
  parser.AddInt64("top", 15, "products listed", &top);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::ScorerOptions options;
  options.significance.alpha = alpha;
  options.window_span_months = static_cast<int32_t>(window_span);
  CHURNLAB_ASSIGN_OR_RETURN(const api::ScorerHandle scorer,
                            api::ScorerHandle::Make(options));
  CHURNLAB_ASSIGN_OR_RETURN(
      const api::SignificanceProfile profile,
      scorer.ProfileCustomer(dataset, static_cast<api::CustomerId>(customer),
                             static_cast<int32_t>(window)));
  std::printf("customer %u, window %d (months [%lld, %lld))\n",
              profile.customer, profile.window_index,
              static_cast<long long>(profile.window_index * window_span),
              static_cast<long long>((profile.window_index + 1) *
                                     window_span));
  api::TextTable table(
      {"product", "bought/missed windows", "significance", "share", ""});
  int64_t listed = 0;
  for (const auto& product : profile.products) {
    if (listed++ >= top) break;
    table.AddRow({product.name,
                  std::to_string(product.contain_count) + "/" +
                      std::to_string(product.miss_count),
                  FormatDouble(product.significance, 3),
                  FormatDouble(product.significance_share, 3),
                  product.present_in_window ? "" : "<- missing now"});
  }
  std::printf("%s", table.ToString().c_str());
  return Status::OK();
}

Status RunEvaluate(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab evaluate: stability vs RFM detection AUROC by month");
  std::string data;
  double alpha;
  int64_t window, first_month, last_month;
  uint64_t threads;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddDouble("alpha", 2.0, "significance alpha", &alpha);
  parser.AddInt64("window", 2, "window span in months", &window);
  parser.AddInt64("first_month", 2, "first report month", &first_month);
  parser.AddInt64("last_month", 1000, "last report month", &last_month);
  parser.AddUint64("threads", 1, "worker threads (same output for any count)",
                   &threads);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::Figure1Options options;
  options.stability.significance.alpha = alpha;
  options.stability.window_span_months = static_cast<int32_t>(window);
  options.stability.num_threads = static_cast<size_t>(threads);
  options.rfm.features.window_span_months = static_cast<int32_t>(window);
  options.first_report_month = static_cast<int32_t>(first_month);
  options.last_report_month = static_cast<int32_t>(last_month);
  CHURNLAB_ASSIGN_OR_RETURN(
      const api::EvalRunner runner,
      api::EvalRunner::Make({static_cast<size_t>(threads)}));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Figure1Result result,
                            runner.Figure1(dataset, options));
  api::TextTable table({"month", "stability AUROC", "RFM AUROC"});
  for (const auto& row : result.rows) {
    table.AddRow({std::to_string(row.report_month),
                  FormatDouble(row.stability_auroc, 3),
                  FormatDouble(row.rfm_auroc, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  return Status::OK();
}

Status RunForecast(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab forecast: predict which customers defect in the next months");
  std::string data;
  int64_t decision, horizon;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddInt64("decision", 16, "decision month (data visible through it)",
                  &decision);
  parser.AddInt64("horizon", 6, "forecast horizon in months", &horizon);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::ForecastOptions options;
  options.decision_month = static_cast<int32_t>(decision);
  options.horizon_months = static_cast<int32_t>(horizon);
  CHURNLAB_ASSIGN_OR_RETURN(const api::EvalRunner runner,
                            api::EvalRunner::Make());
  CHURNLAB_ASSIGN_OR_RETURN(const api::ForecastResult result,
                            runner.Forecast(dataset, options));
  std::printf("decision month %lld, horizon %lld months\n",
              static_cast<long long>(decision),
              static_cast<long long>(horizon));
  std::printf("future defectors: %zu  loyal: %zu  already defecting "
              "(excluded): %zu\n",
              result.num_future_defectors, result.num_loyal,
              result.num_already_defecting);
  std::printf("out-of-fold AUROC: %.3f\n", result.auroc);
  api::TextTable table({"lead (months)", "AUROC", "defectors"});
  for (const auto& bucket : result.by_lead) {
    table.AddRow({std::to_string(bucket.lead_months),
                  bucket.auroc < 0.0 ? "-" : FormatDouble(bucket.auroc, 3),
                  std::to_string(bucket.num_defectors)});
  }
  std::printf("%s", table.ToString().c_str());
  return Status::OK();
}

Status RunGridSearch(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab gridsearch: 5-fold CV over (window span, alpha)");
  std::string data;
  int64_t onset;
  uint64_t threads;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddInt64("onset", 18, "attrition onset month (objective anchor)",
                  &onset);
  parser.AddUint64("threads", 1, "worker threads (same output for any count)",
                   &threads);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  api::GridSearchOptions options;
  options.onset_month = static_cast<int32_t>(onset);
  CHURNLAB_ASSIGN_OR_RETURN(
      const api::EvalRunner runner,
      api::EvalRunner::Make({static_cast<size_t>(threads)}));
  CHURNLAB_ASSIGN_OR_RETURN(const api::GridSearchResult result,
                            runner.GridSearch(dataset, options));
  api::TextTable table({"window (months)", "alpha", "mean AUROC", "std"});
  for (const auto& cell : result.cells) {
    table.AddRow({std::to_string(cell.window_span_months),
                  FormatDouble(cell.alpha, 2),
                  FormatDouble(cell.mean_auroc, 3),
                  FormatDouble(cell.std_auroc, 3)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("selected: window=%d months, alpha=%.2f\n",
              result.best.window_span_months, result.best.alpha);
  return Status::OK();
}

/// The fleet flags serve-replay and serve-http share: registered on the
/// command's parser, then validated and turned into FleetOptions.
struct FleetFlags {
  std::string data, resume, failpoints;
  double alpha = 0.0, beta = 0.0;
  int64_t window = 0, max_shard_retries = 0;
  uint64_t threads = 0, shards = 0;
  bool products = false;

  explicit FleetFlags(FlagParser* parser) {
    parser->AddString("data", "", "dataset path (.clb) or CSV prefix; "
                      "supplies the product taxonomy the fleet scores "
                      "against", &data);
    parser->AddDouble("alpha", 2.0, "significance alpha", &alpha);
    parser->AddDouble("beta", 0.6, "low-stability alert threshold", &beta);
    parser->AddInt64("window", 2, "window span in months", &window);
    parser->AddUint64("threads", 1,
                      "fleet scoring threads (same output for any count)",
                      &threads);
    parser->AddUint64("shards", 16, "state-store shards", &shards);
    parser->AddBool("products", false,
                    "observe raw products instead of taxonomy segments",
                    &products);
    parser->AddInt64("max-shard-retries", 2,
                     "retries of a shard task stuck on one item before "
                     "the shard is poisoned",
                     &max_shard_retries);
    parser->AddString("resume", "",
                      "restore the fleet from this snapshot first", &resume);
    parser->AddString("failpoints", "",
                      "fault-injection spec, e.g. "
                      "'serve.ingest.receipt=throw@every(1000)' "
                      "(docs/ROBUSTNESS.md)",
                      &failpoints);
  }

  /// Validates the flags, arms --failpoints, and returns the fleet options.
  Result<api::FleetOptions> Options() const {
    if (max_shard_retries < 0) {
      return Status::InvalidArgument("--max-shard-retries must be >= 0");
    }
    if (!failpoints.empty()) {
      CHURNLAB_RETURN_NOT_OK(
          api::FailpointRegistry::Global().ArmFromSpec(failpoints));
    }
    api::FleetOptions options;
    options.scorer.significance.alpha = alpha;
    options.scorer.window_span_days =
        static_cast<api::Day>(window) * api::kDaysPerMonth;
    options.policy.beta = beta;
    options.num_shards = static_cast<size_t>(shards);
    options.num_threads = static_cast<size_t>(threads);
    options.granularity = products ? api::Granularity::kProduct
                                   : api::Granularity::kSegment;
    options.shard_retry.max_retries = static_cast<int>(max_shard_retries);
    return options;
  }

  /// A fresh fleet, or --resume's snapshot restored with `options`' runtime
  /// settings. Both commands open snapshots here, so a corrupt tail
  /// generation falls back (and is reported) identically.
  Result<api::FleetHandle> OpenFleet(const api::FleetOptions& options,
                                     const api::Dataset& dataset) const {
    if (resume.empty()) return api::FleetHandle::Make(options, dataset);
    return api::OpenSnapshot(resume, dataset, options);
  }
};

void PrintRecovery(const std::string& journal,
                   const api::JournalRecovery& recovery) {
  std::printf("recovered journal %s: watermark=%llu frames=%zu "
              "receipts=%llu discarded-tail-frames=%zu "
              "next-sequence=%llu\n",
              journal.c_str(),
              static_cast<unsigned long long>(recovery.watermark),
              recovery.frames_scanned,
              static_cast<unsigned long long>(recovery.next_sequence -
                                              recovery.watermark),
              recovery.discarded_tail_frames,
              static_cast<unsigned long long>(recovery.next_sequence));
}

Status RunServeReplay(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab serve-replay: replay a dataset through the scoring fleet "
      "in day-ordered batches");
  FleetFlags flags(&parser);
  std::string snapshot_out, recover;
  int64_t batch_days, from_day, to_day, mem_budget_mb, limit_receipts;
  bool finish;
  parser.AddInt64("batch-days", 7, "days of receipts per ingested batch",
                  &batch_days);
  parser.AddString("snapshot-out", "",
                   "write a fleet snapshot here after the replay", &snapshot_out);
  parser.AddString("recover", "",
                   "crash recovery: replay this journal directory "
                   "(read-only) atop the checkpointed generation named in "
                   "--resume's snapshot file before replaying any --data "
                   "receipts; see docs/ROBUSTNESS.md §Durability",
                   &recover);
  parser.AddInt64("limit-receipts", -1,
                  "replay only the first N receipts of the day-ordered "
                  "stream (-1 = all, 0 = none); an offline oracle for a "
                  "server's state after its Nth arrival sequence number",
                  &limit_receipts);
  parser.AddInt64("from-day", 0,
                  "replay only receipts on or after this day (for resuming "
                  "a mid-stream snapshot)",
                  &from_day);
  parser.AddInt64("to-day", -1,
                  "replay only receipts before this day (-1 = end of data); "
                  "combine with --snapshot-out for a mid-stream snapshot",
                  &to_day);
  parser.AddBool("finish", true,
                 "flush in-progress windows at end of stream (disable when "
                 "snapshotting mid-stream for a later --resume)",
                 &finish);
  parser.AddInt64("mem-budget-mb", 0,
                  "soft budget for fleet state bytes: when exceeded, a "
                  "warning is logged and a memory summary printed (0 = "
                  "no budget, no memory reporting)",
                  &mem_budget_mb);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  if (batch_days <= 0) {
    return Status::InvalidArgument("--batch-days must be positive");
  }
  if (to_day >= 0 && to_day <= from_day) {
    return Status::InvalidArgument("--to-day must be greater than --from-day");
  }
  if (mem_budget_mb < 0) {
    return Status::InvalidArgument("--mem-budget-mb must be >= 0");
  }
  if (limit_receipts < -1) {
    return Status::InvalidArgument("--limit-receipts must be >= -1");
  }
  if (!recover.empty() && flags.resume.empty()) {
    return Status::InvalidArgument(
        "--recover requires --resume (the snapshot file the journal's "
        "checkpoints name generations in)");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const api::FleetOptions options, flags.Options());
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            LoadDataset(flags.data));

  Result<api::FleetHandle> fleet = Status::Internal("fleet not built");
  if (!recover.empty()) {
    // Crash recovery: checkpointed generation + journal frames above the
    // watermark, byte-identical to the crashed server's post-replay state.
    Result<api::RecoveredFleet> recovered =
        api::RecoverFleet(recover, flags.resume, options, dataset);
    CHURNLAB_RETURN_NOT_OK(recovered.status());
    PrintRecovery(recover, recovered->recovery);
    fleet = std::move(recovered->fleet);
  } else {
    fleet = flags.OpenFleet(options, dataset);
  }
  CHURNLAB_RETURN_NOT_OK(fleet.status());

  // Day-ordered replay. AllReceipts is (customer, day)-sorted; the stable
  // sort by day keeps each customer's receipts chronological.
  const std::span<const api::Receipt> all = dataset.store().AllReceipts();
  std::vector<api::Receipt> replay;
  replay.reserve(all.size());
  for (const api::Receipt& receipt : all) {
    if (receipt.day < from_day) continue;
    if (to_day >= 0 && receipt.day >= to_day) continue;
    replay.push_back(receipt);
  }
  std::stable_sort(replay.begin(), replay.end(),
                   [](const api::Receipt& a, const api::Receipt& b) {
                     return a.day < b.day;
                   });
  // --limit-receipts N cuts the stream after the server's Nth arrival
  // sequence number: a sequential flood client sends this exact ordering,
  // so the truncated replay is the fault-free oracle for a recovered
  // server whose journal reached sequence N.
  if (limit_receipts >= 0 &&
      static_cast<size_t>(limit_receipts) < replay.size()) {
    replay.resize(static_cast<size_t>(limit_receipts));
  }

  // Rate-limited progress: receipts/s, batches done, ETA. ProgressLogger
  // emits kInfo events, so a default (non --verbose) run stays quiet.
  obs::ProgressLogger progress("serve_replay", replay.size());
  Stopwatch replay_timer;
  const size_t mem_budget_bytes =
      static_cast<size_t>(mem_budget_mb) * 1024 * 1024;
  bool mem_budget_warned = false;
  size_t batches = 0, receipts = 0, alerts = 0, rejected = 0, poisoned = 0;
  for (size_t begin = 0; begin < replay.size();) {
    const api::Day batch_end =
        replay[begin].day + static_cast<api::Day>(batch_days);
    size_t end = begin;
    while (end < replay.size() && replay[end].day < batch_end) ++end;
    CHURNLAB_ASSIGN_OR_RETURN(
        const api::BatchReport report,
        fleet->IngestBatch(std::span<const api::Receipt>(
            replay.data() + begin, end - begin)));
    ++batches;
    receipts += report.receipts_ingested;
    alerts += report.alerts.size();
    rejected += report.rejected.size();
    poisoned = std::max(poisoned, report.poisoned.size());
    begin = end;

    // Soft memory budget: a breach warns (once) and keeps serving — the
    // budget is advisory, not an OOM killer.
    if (mem_budget_bytes > 0) {
      const api::StateMemoryStats memory = fleet->Memory();
      if (memory.total_bytes > mem_budget_bytes && !mem_budget_warned) {
        mem_budget_warned = true;
        obs::LogEvent(LogLevel::kWarning, "serve_mem_budget_exceeded",
                      __FILE__, __LINE__)
            .Uint("bytes_total", memory.total_bytes)
            .Uint("budget_bytes", mem_budget_bytes)
            .Uint("customers", memory.customers);
      }
    }

    const double elapsed = replay_timer.ElapsedSeconds();
    const double rate = elapsed > 0.0 ? static_cast<double>(end) / elapsed
                                      : 0.0;
    const double eta =
        rate > 0.0 ? static_cast<double>(replay.size() - end) / rate : 0.0;
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "batches=%zu rate=%.0f/s eta=%.1fs", batches, rate, eta);
    progress.Step(end, detail);
  }
  progress.Done();
  // Per-shard health, logged at kInfo so --verbose runs can spot skew or
  // poisoning; the same data is exported as labeled shard gauges when
  // detailed timing is on.
  {
    const api::FleetHealth health = fleet->Health();
    obs::LogEvent(LogLevel::kInfo, "fleet_health", __FILE__, __LINE__)
        .Uint("shards", health.shards.size())
        .Uint("poisoned_shards", health.poisoned_shards)
        .Uint("customers", health.customers_total)
        .Uint("receipts", health.receipts_total)
        .Uint("queue_depth", health.queue_depth);
  }
  if (finish) {
    CHURNLAB_ASSIGN_OR_RETURN(const api::BatchReport tail, fleet->FinishAll());
    alerts += tail.alerts.size();
    rejected += tail.rejected.size();
    poisoned = std::max(poisoned, tail.poisoned.size());
  }

  std::printf("replayed %zu receipts in %zu batches: %zu customers, "
              "%zu alerts\n",
              receipts, batches, fleet->NumCustomers(), alerts);
  if (rejected > 0 || poisoned > 0) {
    std::printf("quarantined %zu receipts; %zu shards poisoned\n", rejected,
                poisoned);
  }
  // Memory summary only when a budget was requested, so default runs keep
  // their exact historical stdout.
  if (mem_budget_bytes > 0) {
    const api::StateMemoryStats memory = fleet->Memory();
    const double per_customer =
        memory.customers > 0
            ? static_cast<double>(memory.total_bytes) /
                  static_cast<double>(memory.customers)
            : 0.0;
    std::printf("state memory: %.1f MiB for %zu customers "
                "(%.0f B/customer)%s\n",
                static_cast<double>(memory.total_bytes) / (1024.0 * 1024.0),
                memory.customers, per_customer,
                mem_budget_warned ? " [budget exceeded]" : "");
  }
  if (!snapshot_out.empty()) {
    CHURNLAB_RETURN_NOT_OK(fleet->SaveSnapshot(snapshot_out));
    std::printf("wrote fleet snapshot to %s\n", snapshot_out.c_str());
  }
  return Status::OK();
}

Status RunServeHttp(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab serve-http: run the HTTP/1.1 scoring front end over a "
      "sharded fleet (POST /v1/ingest, GET /v1/customers/{id}, GET "
      "/v1/health, GET /metrics, POST /v1/snapshot)");
  FleetFlags flags(&parser);
  std::string bind, snapshot_out, journal, journal_fsync;
  int64_t port, retry_after, poll_ms, snapshot_interval_ms;
  uint64_t net_threads, max_body_mb, max_inflight, max_pending_mb;
  uint64_t coalesce_batch, coalesce_queue, max_request_receipts;
  bool recover;
  parser.AddString("bind", "127.0.0.1", "IPv4 address to bind", &bind);
  parser.AddInt64("port", 8080, "TCP port (0 = ephemeral)", &port);
  parser.AddUint64("net-threads", 8, "connection worker threads",
                   &net_threads);
  parser.AddString("snapshot-out", "",
                   "generation file for POST /v1/snapshot and the "
                   "drain-time flush: each snapshot appends one generation "
                   "(empty disables both)",
                   &snapshot_out);
  parser.AddString("journal", "",
                   "durable ingest journal directory: every coalesced batch "
                   "is appended and synced BEFORE it is applied or "
                   "acknowledged; snapshots checkpoint and truncate it "
                   "(requires --snapshot-out; empty disables)",
                   &journal);
  parser.AddString("journal-fsync", "batch",
                   "journal durability: always (fsync per append), batch "
                   "(group commit: a round's acks wait for an fsync that "
                   "covers it, shared by overlapping rounds), none "
                   "(page cache only)",
                   &journal_fsync);
  parser.AddBool("recover", false,
                 "crash recovery: replay the --journal directory atop its "
                 "checkpointed --snapshot-out generation, then serve with "
                 "the sequence numbering continued", &recover);
  parser.AddInt64("snapshot-interval-ms", 0,
                  "periodic snapshot/checkpoint interval (<= 0 disables); "
                  "with --journal each tick truncates the journal at the "
                  "new watermark, bounding crash-replay work",
                  &snapshot_interval_ms);
  parser.AddUint64("max-body-mb", 8, "largest accepted request body (MiB)",
                   &max_body_mb);
  parser.AddUint64("max-inflight", 64,
                   "admission bound on concurrent requests (429 beyond it)",
                   &max_inflight);
  parser.AddUint64("max-pending-mb", 32,
                   "admission bound on admitted-but-unfinished body bytes "
                   "(MiB)",
                   &max_pending_mb);
  parser.AddInt64("retry-after", 1,
                  "Retry-After seconds advertised on 429/503", &retry_after);
  parser.AddUint64("coalesce-batch", 8192,
                   "receipts per merged ingest batch", &coalesce_batch);
  parser.AddUint64("coalesce-queue", 65536,
                   "receipts queued in the coalescer before shedding",
                   &coalesce_queue);
  parser.AddUint64("max-request-receipts", 100000,
                   "receipts accepted per ingest request (413 beyond it)",
                   &max_request_receipts);
  parser.AddInt64("poll-ms", 100, "idle-connection poll tick (ms)", &poll_ms);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  if (retry_after <= 0) {
    return Status::InvalidArgument("--retry-after must be positive");
  }
  if (poll_ms <= 0) {
    return Status::InvalidArgument("--poll-ms must be positive");
  }
  if (recover && journal.empty()) {
    return Status::InvalidArgument("--recover requires --journal");
  }
  if (!journal.empty() && snapshot_out.empty()) {
    return Status::InvalidArgument(
        "--journal requires --snapshot-out (checkpoints need a snapshot "
        "destination)");
  }
  if (recover && !flags.resume.empty()) {
    return Status::InvalidArgument(
        "--recover and --resume are exclusive: recovery restores the "
        "generation the journal checkpoint names, not the newest one");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const api::FsyncPolicy fsync_policy,
                            api::ParseFsyncPolicy(journal_fsync));
  CHURNLAB_ASSIGN_OR_RETURN(const api::FleetOptions options, flags.Options());
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            LoadDataset(flags.data));

  api::ServerHandle::Options server_options;
  server_options.http.bind_address = bind;
  server_options.http.port = static_cast<uint16_t>(port);
  server_options.http.num_threads = static_cast<size_t>(net_threads);
  server_options.http.limits.max_body_bytes =
      static_cast<size_t>(max_body_mb) * 1024 * 1024;
  server_options.http.admission.max_inflight_requests =
      static_cast<size_t>(max_inflight);
  server_options.http.admission.max_pending_bytes =
      static_cast<size_t>(max_pending_mb) * 1024 * 1024;
  server_options.http.admission.retry_after_seconds =
      static_cast<int>(retry_after);
  server_options.http.coalescer.max_batch_receipts =
      static_cast<size_t>(coalesce_batch);
  server_options.http.coalescer.max_queue_receipts =
      static_cast<size_t>(coalesce_queue);
  server_options.http.max_receipts_per_request =
      static_cast<size_t>(max_request_receipts);
  server_options.http.poll_interval_ms = static_cast<int>(poll_ms);
  server_options.http.snapshot_interval_ms =
      static_cast<int>(snapshot_interval_ms);
  server_options.snapshot_path = snapshot_out;
  server_options.journal_dir = journal;
  server_options.journal_fsync = fsync_policy;

  Result<api::ServerHandle> server = Status::Internal("server not built");
  if (recover) {
    api::JournalRecovery recovery;
    server = api::ServerHandle::Recover(std::move(server_options), options,
                                        dataset, options.num_threads, {},
                                        &recovery);
    CHURNLAB_RETURN_NOT_OK(server.status());
    PrintRecovery(journal, recovery);
  } else {
    CHURNLAB_ASSIGN_OR_RETURN(api::FleetHandle fleet,
                              flags.OpenFleet(options, dataset));
    server = api::ServerHandle::Make(std::move(server_options),
                                     std::move(fleet));
  }
  CHURNLAB_RETURN_NOT_OK(server.status());
  CHURNLAB_RETURN_NOT_OK(server->Start());
  CHURNLAB_RETURN_NOT_OK(server->InstallSignalHandler());
  std::printf("serving on http://%s:%u (SIGTERM or SIGINT drains)\n",
              bind.c_str(), static_cast<unsigned>(server->port()));
  std::fflush(stdout);
  CHURNLAB_RETURN_NOT_OK(server->Wait());

  const api::FleetHealth health = server->fleet().Health();
  std::printf("drained: %zu customers, %llu receipts, %zu shards poisoned\n",
              health.customers_total,
              static_cast<unsigned long long>(health.receipts_total),
              health.poisoned_shards);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// flood: HTTP ingest client (the chaos harness's load source)
// ---------------------------------------------------------------------------

/// Minimal blocking HTTP/1.1 client over one keep-alive connection. Only
/// what the flood loop needs: POST, read status + Content-Length + body.
class FloodConnection {
 public:
  ~FloodConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Connect(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
      return Status::InvalidArgument("bad IPv4 address '" + host + "'");
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      return Status::IOError("connect " + host + ":" +
                             std::to_string(port) + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  /// POSTs `body` to `path`; returns the response body after checking the
  /// status code is 200. Any transport error is IOError (a killed server
  /// surfaces here as a reset or EOF).
  Result<std::string> Post(const std::string& path, const std::string& body) {
    std::string request = "POST " + path + " HTTP/1.1\r\n" +
                          "Host: flood\r\n" +
                          "Content-Type: application/json\r\n" +
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n" + body;
    CHURNLAB_RETURN_NOT_OK(WriteAll(request));
    // Read headers.
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      CHURNLAB_RETURN_NOT_OK(ReadMore());
    }
    const std::string headers = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end + 4);
    int status_code = 0;
    if (std::sscanf(headers.c_str(), "HTTP/1.%*d %d", &status_code) != 1) {
      return Status::IOError("malformed HTTP response status line");
    }
    size_t content_length = 0;
    const std::string lowered = AsciiToLower(headers);
    const size_t cl = lowered.find("content-length:");
    if (cl != std::string::npos) {
      content_length = static_cast<size_t>(
          std::atoll(lowered.c_str() + cl + std::strlen("content-length:")));
    }
    while (buffer_.size() < content_length) {
      CHURNLAB_RETURN_NOT_OK(ReadMore());
    }
    std::string response_body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
    if (status_code != 200) {
      return Status::IOError("HTTP " + std::to_string(status_code) + ": " +
                             response_body);
    }
    return response_body;
  }

 private:
  Status WriteAll(const std::string& bytes) {
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("send: ") + std::strerror(errno));
      }
      written += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadMore() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) return Status::OK();
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("server closed the connection mid-response");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }

  int fd_ = -1;
  std::string buffer_;
};

/// One POST /v1/ingest body for `receipts`.
std::string RenderIngestBody(std::span<const api::Receipt> receipts) {
  std::string body = "{\"receipts\":[";
  for (size_t i = 0; i < receipts.size(); ++i) {
    const api::Receipt& receipt = receipts[i];
    if (i > 0) body += ',';
    // %.17g round-trips every finite double exactly: the server must
    // parse the same spend bits the offline oracle reads from the
    // dataset, or recovered-vs-oracle snapshots would differ.
    char spend[40];
    std::snprintf(spend, sizeof(spend), "%.17g", receipt.spend);
    body += "{\"customer\":" + std::to_string(receipt.customer) +
            ",\"day\":" + std::to_string(receipt.day) + ",\"spend\":" +
            spend + ",\"items\":[";
    for (size_t j = 0; j < receipt.items.size(); ++j) {
      if (j > 0) body += ',';
      body += std::to_string(receipt.items[j]);
    }
    body += "]}";
  }
  body += "]}";
  return body;
}

/// Acknowledged-request log shared by a flood's connections: one line per
/// ack, written only after the server's 200 was read and flushed at once,
/// so the file never claims an ack the client did not observe.
class AckLog {
 public:
  explicit AckLog(std::FILE* file) : file_(file) {}

  void Record(uint64_t sequence, size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t end = sequence + count;
    max_end_ = std::max(max_end_, end);
    ++requests_;
    sent_ += count;
    if (file_ != nullptr) {
      std::fprintf(file_, "ack seq=%llu count=%zu end=%llu\n",
                   static_cast<unsigned long long>(sequence), count,
                   static_cast<unsigned long long>(end));
      std::fflush(file_);
    }
  }

  uint64_t max_end() const { return max_end_; }
  size_t requests() const { return requests_; }
  size_t sent() const { return sent_; }

 private:
  std::mutex mutex_;
  std::FILE* file_;
  uint64_t max_end_ = 0;
  size_t requests_ = 0;
  size_t sent_ = 0;
};

/// Sends `receipts` in order over one keep-alive connection, at most
/// `request_receipts` per request, logging each ack.
Status FloodOneConnection(const std::string& host, uint16_t port,
                          std::span<const api::Receipt> receipts,
                          size_t request_receipts, AckLog* acks) {
  FloodConnection connection;
  CHURNLAB_RETURN_NOT_OK(connection.Connect(host, port));
  for (size_t sent = 0; sent < receipts.size();) {
    const size_t count = std::min(request_receipts, receipts.size() - sent);
    CHURNLAB_ASSIGN_OR_RETURN(
        const std::string response,
        connection.Post("/v1/ingest",
                        RenderIngestBody(receipts.subspan(sent, count))));
    // The ingest reply's "sequence" field numbers the request's first
    // receipt; log it only AFTER the server acknowledged (journaled,
    // applied and durable) so the acks file never over-claims across a
    // crash.
    const size_t marker = response.find("\"sequence\":");
    if (marker == std::string::npos) {
      return Status::Internal("ingest reply lacks a sequence field: " +
                              response);
    }
    const auto sequence = static_cast<uint64_t>(std::atoll(
        response.c_str() + marker + std::strlen("\"sequence\":")));
    acks->Record(sequence, count);
    sent += count;
  }
  return Status::OK();
}

Status RunFlood(int argc, const char* const* argv) {
  FlagParser parser(
      "churnlab flood: stream a dataset's receipts into a running "
      "serve-http instance in the same day-ordered sequence serve-replay "
      "uses. Over one connection the Nth receipt sent carries arrival "
      "sequence number N, so `serve-replay --limit-receipts N` is its "
      "offline oracle; with --connections K, connection k sends the "
      "customers with id % K == k, in day order, concurrently. "
      "Acknowledged sequences are appended to --acks-out as they return, "
      "making the log crash-accurate.");
  std::string data, host, acks_out;
  int64_t port, request_receipts, limit_receipts, connections;
  parser.AddString("data", "", "dataset path (.clb) or CSV prefix", &data);
  parser.AddString("host", "127.0.0.1", "server IPv4 address", &host);
  parser.AddInt64("port", 8080, "server TCP port", &port);
  parser.AddInt64("request-receipts", 256,
                  "receipts per POST /v1/ingest request", &request_receipts);
  parser.AddInt64("limit-receipts", -1,
                  "send only the first N receipts of the day-ordered "
                  "stream (-1 = all)", &limit_receipts);
  parser.AddInt64("connections", 1,
                  "concurrent connections; connection k owns the customers "
                  "with id % connections == k",
                  &connections);
  parser.AddString("acks-out", "",
                   "append one 'ack seq=S count=N end=E' line per "
                   "acknowledged request (flushed immediately; empty "
                   "disables)",
                   &acks_out);
  CHURNLAB_RETURN_NOT_OK(parser.Parse(argc, argv, 2));
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("--port must be in [1, 65535]");
  }
  if (request_receipts <= 0) {
    return Status::InvalidArgument("--request-receipts must be positive");
  }
  if (limit_receipts < -1) {
    return Status::InvalidArgument("--limit-receipts must be >= -1");
  }
  if (connections <= 0 || connections > 1024) {
    return Status::InvalidArgument("--connections must be in [1, 1024]");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset, LoadDataset(data));

  // The same day-ordered stream serve-replay builds, so sequence numbers
  // line up between the live server and the offline oracle.
  const std::span<const api::Receipt> all = dataset.store().AllReceipts();
  std::vector<api::Receipt> replay(all.begin(), all.end());
  std::stable_sort(replay.begin(), replay.end(),
                   [](const api::Receipt& a, const api::Receipt& b) {
                     return a.day < b.day;
                   });
  if (limit_receipts >= 0 &&
      static_cast<size_t>(limit_receipts) < replay.size()) {
    replay.resize(static_cast<size_t>(limit_receipts));
  }
  // Connection k's share keeps the stream's day order.
  const auto num_connections = static_cast<size_t>(connections);
  std::vector<std::vector<api::Receipt>> shares(num_connections);
  for (const api::Receipt& receipt : replay) {
    shares[receipt.customer % num_connections].push_back(receipt);
  }

  std::FILE* acks_file = nullptr;
  if (!acks_out.empty()) {
    acks_file = std::fopen(acks_out.c_str(), "a");
    if (acks_file == nullptr) {
      return Status::IOError("cannot open --acks-out " + acks_out + ": " +
                             std::strerror(errno));
    }
  }
  AckLog acks(acks_file);
  std::vector<Status> statuses(num_connections);
  std::vector<std::thread> threads;
  threads.reserve(num_connections);
  for (size_t k = 0; k < num_connections; ++k) {
    threads.emplace_back([&, k] {
      statuses[k] = FloodOneConnection(
          host, static_cast<uint16_t>(port), shares[k],
          static_cast<size_t>(request_receipts), &acks);
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (acks_file != nullptr) std::fclose(acks_file);
  for (const Status& status : statuses) {
    if (!status.ok()) {
      return status.WithContext(
          "flood stopped after " + std::to_string(acks.requests()) +
          " acknowledged requests (acked-sequence-end " +
          std::to_string(acks.max_end()) + ")");
    }
  }
  std::printf("flooded %zu receipts in %zu requests, "
              "acked-sequence-end=%llu\n",
              acks.sent(), acks.requests(),
              static_cast<unsigned long long>(acks.max_end()));
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  const std::string usage =
      "usage: churnlab "
      "<simulate|stats|score|explain|profile|evaluate|forecast|gridsearch|"
      "serve-replay|serve-http|flood> [flags]\n"
      "       churnlab <subcommand> --help\n"
      "global flags: --verbose (progress logs), --trace (profile table on "
      "stderr),\n"
      "              --metrics-out=<path> (telemetry JSON), "
      "--log-json=<path> (JSONL log sink),\n"
      "              --telemetry-out=<path> (live time-series JSONL), "
      "--telemetry-interval-ms=<n>,\n"
      "              --prom-out=<path> (Prometheus textfile), "
      "--flight-recorder=<path> (post-mortem dump)\n";
  // Strip the global flags before subcommand parsing.
  std::string metrics_out;
  std::string log_json;
  std::string telemetry_out;
  std::string prom_out;
  std::string flight_recorder;
  int64_t telemetry_interval_ms = 1000;
  bool trace = false;
  std::vector<const char*> arguments;
  for (int i = 0; i < argc; ++i) {
    const std::string argument = argv[i];
    if (argument == "--verbose") {
      Logger::SetLevel(LogLevel::kInfo);
    } else if (argument == "--trace") {
      trace = true;
    } else if (StartsWith(argument, "--metrics-out=")) {
      metrics_out = argument.substr(std::string("--metrics-out=").size());
    } else if (argument == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (StartsWith(argument, "--log-json=")) {
      log_json = argument.substr(std::string("--log-json=").size());
    } else if (argument == "--log-json" && i + 1 < argc) {
      log_json = argv[++i];
    } else if (StartsWith(argument, "--telemetry-out=")) {
      telemetry_out = argument.substr(std::string("--telemetry-out=").size());
    } else if (argument == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (StartsWith(argument, "--telemetry-interval-ms=")) {
      telemetry_interval_ms = std::atoll(
          argument.c_str() + std::string("--telemetry-interval-ms=").size());
    } else if (argument == "--telemetry-interval-ms" && i + 1 < argc) {
      telemetry_interval_ms = std::atoll(argv[++i]);
    } else if (StartsWith(argument, "--prom-out=")) {
      prom_out = argument.substr(std::string("--prom-out=").size());
    } else if (argument == "--prom-out" && i + 1 < argc) {
      prom_out = argv[++i];
    } else if (StartsWith(argument, "--flight-recorder=")) {
      flight_recorder =
          argument.substr(std::string("--flight-recorder=").size());
    } else if (argument == "--flight-recorder" && i + 1 < argc) {
      flight_recorder = argv[++i];
    } else {
      arguments.push_back(argv[i]);
    }
  }
  if (telemetry_interval_ms <= 0) {
    std::fprintf(stderr,
                 "churnlab: --telemetry-interval-ms must be positive\n");
    return 2;
  }
  argc = static_cast<int>(arguments.size());
  argv = arguments.data();
  if (argc < 2) {
    std::fprintf(stderr, "%s", usage.c_str());
    return 2;
  }
  if (trace) obs::Trace::Enable(true);
  // Any telemetry consumer wants the per-operation latency histograms (and,
  // for the live exporters, the labeled per-shard serve gauges).
  if (trace || !metrics_out.empty() || !telemetry_out.empty() ||
      !prom_out.empty()) {
    obs::SetDetailedTiming(true);
  }
  if (!flight_recorder.empty()) {
    obs::FlightRecorder::Arm();
    obs::FlightRecorder::SetAutoDumpPath(flight_recorder);
    obs::FlightRecorder::LabelThread("main");
  }
  // Fault-injection plumbing: failpoints armed via the CHURNLAB_FAILPOINTS
  // environment variable count into the telemetry above like --failpoints.
  obs::InstallFaultTelemetry();
  {
    const Status armed = FailpointRegistry::Global().ArmFromEnv();
    if (!armed.ok()) {
      std::fprintf(stderr, "churnlab: bad CHURNLAB_FAILPOINTS spec: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  }
  if (!log_json.empty()) {
    const Status opened = obs::StructuredSink::Open(log_json);
    if (!opened.ok()) {
      std::fprintf(stderr, "churnlab: cannot open --log-json sink: %s\n",
                   opened.ToString().c_str());
      return 2;
    }
  }

  // The snapshotter brackets the subcommand so the series covers the whole
  // run (serve-replay batches, score sweeps, evaluate folds alike).
  obs::TelemetrySnapshotter::Options snapshotter_options;
  snapshotter_options.path = telemetry_out;
  snapshotter_options.interval_ms = static_cast<int>(telemetry_interval_ms);
  obs::TelemetrySnapshotter snapshotter(snapshotter_options);
  if (!telemetry_out.empty()) {
    const Status started = snapshotter.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "churnlab: cannot open --telemetry-out: %s\n",
                   started.ToString().c_str());
      return 2;
    }
  }

  const std::string command = argv[1];
  const std::string span_name = "cli." + command;
  Status status;
  {
    obs::ScopedSpan span(span_name.c_str());
    if (command == "simulate") {
      status = RunSimulate(argc, argv);
    } else if (command == "stats") {
      status = RunStats(argc, argv);
    } else if (command == "score") {
      status = RunScore(argc, argv);
    } else if (command == "explain") {
      status = RunExplain(argc, argv);
    } else if (command == "profile") {
      status = RunProfile(argc, argv);
    } else if (command == "evaluate") {
      status = RunEvaluate(argc, argv);
    } else if (command == "forecast") {
      status = RunForecast(argc, argv);
    } else if (command == "gridsearch") {
      status = RunGridSearch(argc, argv);
    } else if (command == "serve-replay") {
      status = RunServeReplay(argc, argv);
    } else if (command == "serve-http") {
      status = RunServeHttp(argc, argv);
    } else if (command == "flood") {
      status = RunFlood(argc, argv);
    } else {
      std::fprintf(stderr, "unknown subcommand '%s'\n%s", command.c_str(),
                   usage.c_str());
      return 2;
    }
  }

  if (!telemetry_out.empty()) {
    snapshotter.Stop();
    std::fprintf(stderr, "wrote %llu telemetry samples to %s\n",
                 static_cast<unsigned long long>(snapshotter.samples_taken()),
                 telemetry_out.c_str());
  }
  if (!metrics_out.empty()) {
    const Status written = obs::JsonExporter::WriteGlobalTelemetry(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "churnlab: cannot write --metrics-out: %s\n",
                   written.ToString().c_str());
      if (status.ok()) return 1;
    } else {
      std::fprintf(stderr, "wrote telemetry to %s\n", metrics_out.c_str());
    }
  }
  if (!prom_out.empty()) {
    const Status written = obs::WritePrometheusFile(prom_out);
    if (!written.ok()) {
      std::fprintf(stderr, "churnlab: cannot write --prom-out: %s\n",
                   written.ToString().c_str());
      if (status.ok()) return 1;
    } else {
      std::fprintf(stderr, "wrote prometheus metrics to %s\n",
                   prom_out.c_str());
    }
  }
  if (!flight_recorder.empty()) {
    // Failpoint auto-dumps may have appended earlier; this final dump makes
    // the recorder useful for clean runs and fatal errors alike.
    const Status dumped = obs::FlightRecorder::TriggerDump(
        status.ok() || status.IsCancelled() ? "end_of_run" : "fatal_error");
    if (!dumped.ok()) {
      std::fprintf(stderr, "churnlab: cannot write --flight-recorder: %s\n",
                   dumped.ToString().c_str());
      if (status.ok()) return 1;
    } else {
      std::fprintf(stderr, "wrote flight-recorder dump to %s\n",
                   flight_recorder.c_str());
    }
  }
  if (trace) {
    std::fprintf(stderr, "%s",
                 obs::Trace::RenderAscii(obs::Trace::Collect()).c_str());
  }
  obs::StructuredSink::Close();

  if (status.IsCancelled()) return 0;  // --help
  if (!status.ok()) {
    std::fprintf(stderr, "churnlab %s failed: %s\n", command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace churnlab

int main(int argc, char** argv) { return churnlab::Main(argc, argv); }
