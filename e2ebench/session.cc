#include "session.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "churnlab.h"
#include "common/macros.h"
#include "http_client.h"
#include "net/server.h"
#include "stats.h"

namespace churnlab {
namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Fleet options of `churnlab serve-http` with no flags: the option
/// structs' own defaults (16 shards, 1 scoring thread, segment
/// granularity, alpha 2, 2-month windows).
api::FleetOptions ServerFleetOptions() { return api::FleetOptions(); }

/// Offline replays run on up to 4 threads; fleet output is byte-identical
/// for any thread count.
size_t OracleThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Compares two snapshot files; a difference is a check failure.
Status CompareSnapshots(const std::string& expected_path,
                        const std::string& actual_path, const char* what,
                        std::vector<std::string>* failures) {
  CHURNLAB_ASSIGN_OR_RETURN(const std::string expected,
                            ReadFile(expected_path));
  CHURNLAB_ASSIGN_OR_RETURN(const std::string actual, ReadFile(actual_path));
  if (expected != actual) {
    failures->push_back(std::string(what) + ": snapshot bytes differ (" +
                        std::to_string(actual.size()) + " vs " +
                        std::to_string(expected.size()) + " expected)");
  }
  return Status::OK();
}

Status WaitHealthy(uint16_t port) {
  HttpClient client;
  CHURNLAB_RETURN_NOT_OK(client.Connect(port));
  const std::string wire = "GET /v1/health HTTP/1.1\r\nHost: e2e\r\n\r\n";
  for (int attempt = 0; attempt < 500; ++attempt) {
    int code = 0;
    std::string_view body;
    CHURNLAB_RETURN_NOT_OK(client.RoundTrip(wire, &code, &body));
    if (code == 200) return Status::OK();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Internal("server never answered /v1/health with 200");
}

struct ServerPaths {
  std::string journal;
  std::string snapshot;
};

/// The server under test, whichever way it is wired.
class Server {
 public:
  virtual ~Server() = default;
  virtual uint16_t port() const = 0;
  /// Graceful drain: in-flight requests finish, a final snapshot is
  /// flushed and checkpointed.
  virtual Status Shutdown() = 0;
  // The rest are for after Shutdown.
  virtual Status SaveSnapshot(const std::string& path) = 0;
  virtual api::StateMemoryStats Memory() = 0;
  virtual size_t NumCustomers() = 0;
};

/// The production wiring: api::ServerHandle (HttpServer -> IngestCoalescer
/// -> FleetBackend -> IngestJournal -> ScoringFleet).
class ProductionServer final : public Server {
 public:
  static Result<std::unique_ptr<Server>> Start(const SessionConfig& config,
                                               const ServerPaths& paths,
                                               double* dataset_load_s) {
    std::unique_ptr<ProductionServer> server(new ProductionServer);
    const int64_t load_start = NowNs();
    CHURNLAB_ASSIGN_OR_RETURN(
        api::Dataset dataset, api::LoadDataset(config.population->clb_path));
    *dataset_load_s = static_cast<double>(NowNs() - load_start) * 1e-9;
    server->dataset_ = std::make_unique<api::Dataset>(std::move(dataset));

    api::ServerHandle::Options options;
    options.http.port = 0;
    options.snapshot_path = paths.snapshot;
    options.journal_dir = paths.journal;
    options.journal_fsync = api::FsyncPolicy::kBatch;
    const api::FleetOptions fleet_options = ServerFleetOptions();
    Result<api::ServerHandle> handle = Status::Internal("server not built");
    if (config.spec->recover) {
      handle = api::ServerHandle::Recover(std::move(options), fleet_options,
                                          *server->dataset_,
                                          fleet_options.num_threads,
                                          fleet_options.layout);
    } else {
      CHURNLAB_ASSIGN_OR_RETURN(
          api::FleetHandle fleet,
          api::FleetHandle::Make(fleet_options, *server->dataset_));
      handle = api::ServerHandle::Make(std::move(options), std::move(fleet));
    }
    CHURNLAB_RETURN_NOT_OK(handle.status());
    server->handle_.emplace(std::move(*handle));
    CHURNLAB_RETURN_NOT_OK(server->handle_->Start());
    CHURNLAB_RETURN_NOT_OK(WaitHealthy(server->handle_->port()));
    return std::unique_ptr<Server>(std::move(server));
  }

  uint16_t port() const override { return handle_->port(); }
  Status Shutdown() override { return handle_->Shutdown(); }
  Status SaveSnapshot(const std::string& path) override {
    return handle_->fleet().SaveSnapshot(path);
  }
  api::StateMemoryStats Memory() override { return handle_->fleet().Memory(); }
  size_t NumCustomers() override { return handle_->fleet().NumCustomers(); }

 private:
  ProductionServer() = default;

  // The fleet borrows the dataset's taxonomy: declared first, destroyed
  // last.
  std::unique_ptr<api::Dataset> dataset_;
  std::optional<api::ServerHandle> handle_;
};

/// The traced wiring: the same HttpServer built directly over a
/// TimedBackend that owns the calls FleetBackend would make.
class TracedServer final : public Server {
 public:
  struct Timings {
    double dataset_load_s = 0.0;
    double scan_s = 0.0;
    double replay_s = 0.0;
  };

  static Result<std::unique_ptr<TracedServer>> Start(
      const SessionConfig& config, const ServerPaths& paths,
      Timings* timings) {
    std::unique_ptr<TracedServer> server(new TracedServer);
    int64_t start = NowNs();
    CHURNLAB_ASSIGN_OR_RETURN(
        api::Dataset dataset, api::LoadDataset(config.population->clb_path));
    timings->dataset_load_s = static_cast<double>(NowNs() - start) * 1e-9;
    server->dataset_ = std::make_unique<api::Dataset>(std::move(dataset));

    // As ServerHandle::Make / ::Recover open and rebuild.
    serve::JournalOptions journal_options;
    journal_options.directory = paths.journal;
    journal_options.fsync = serve::FsyncPolicy::kBatch;
    journal_options.recover = config.spec->recover;
    serve::JournalRecovery recovery;
    start = NowNs();
    CHURNLAB_ASSIGN_OR_RETURN(
        serve::IngestJournal journal,
        serve::IngestJournal::Open(journal_options,
                                   config.spec->recover ? &recovery : nullptr));
    timings->scan_s = static_cast<double>(NowNs() - start) * 1e-9;
    server->journal_ =
        std::make_unique<serve::IngestJournal>(std::move(journal));
    const api::FleetOptions fleet_options = ServerFleetOptions();
    const retail::Taxonomy* taxonomy = &server->dataset_->taxonomy();
    if (config.spec->recover) {
      start = NowNs();
      CHURNLAB_ASSIGN_OR_RETURN(
          serve::ScoringFleet fleet,
          serve::ScoringFleet::Recover(recovery, paths.snapshot, fleet_options,
                                       taxonomy, fleet_options.num_threads,
                                       fleet_options.layout));
      timings->replay_s = static_cast<double>(NowNs() - start) * 1e-9;
      server->fleet_ = std::make_unique<serve::ScoringFleet>(std::move(fleet));
    } else {
      CHURNLAB_ASSIGN_OR_RETURN(
          serve::ScoringFleet fleet,
          serve::ScoringFleet::Make(fleet_options, taxonomy));
      server->fleet_ = std::make_unique<serve::ScoringFleet>(std::move(fleet));
    }
    recovery.frames.clear();
    recovery.frames.shrink_to_fit();

    server->backend_ = std::make_unique<TimedBackend>(
        server->fleet_.get(), server->journal_.get(), paths.snapshot,
        &server->tracer_);
    net::ServerOptions http;
    http.port = 0;
    http.coalescer.first_sequence = server->journal_->next_sequence();
    CHURNLAB_ASSIGN_OR_RETURN(
        server->http_, net::HttpServer::Make(http, server->backend_.get()));
    CHURNLAB_RETURN_NOT_OK(server->http_->Start());
    CHURNLAB_RETURN_NOT_OK(WaitHealthy(server->http_->port()));
    return server;
  }

  uint16_t port() const override { return http_->port(); }
  Status Shutdown() override { return http_->Shutdown(); }
  Status SaveSnapshot(const std::string& path) override {
    return fleet_->SaveSnapshotToFile(path);
  }
  api::StateMemoryStats Memory() override { return fleet_->MemoryUsage(); }
  size_t NumCustomers() override { return fleet_->NumCustomers(); }

  std::vector<Span> TakeSpans() { return tracer_.Take(); }
  std::vector<Round> TakeRounds() { return backend_->TakeRounds(); }

 private:
  TracedServer() = default;

  std::unique_ptr<api::Dataset> dataset_;
  std::unique_ptr<serve::IngestJournal> journal_;
  std::unique_ptr<serve::ScoringFleet> fleet_;
  Tracer tracer_;
  std::unique_ptr<TimedBackend> backend_;
  std::unique_ptr<net::HttpServer> http_;
};

/// Ingests `receipts` into `fleet` and clears them; any rejection is a
/// check failure.
Status IngestAll(api::FleetHandle* fleet,
                 std::vector<retail::Receipt>* receipts,
                 std::vector<std::string>* failures) {
  CHURNLAB_ASSIGN_OR_RETURN(const api::BatchReport report,
                            fleet->IngestBatch(*receipts));
  if (!report.rejected.empty()) {
    failures->push_back("offline replay rejected " +
                        std::to_string(report.rejected.size()) +
                        " receipts");
  }
  receipts->clear();
  return Status::OK();
}

constexpr size_t kReplayBatch = 65536;

/// Checks the acknowledged ranges and replays them offline, in sequence
/// order, into `snapshot_path`.
Status CheckAcked(const SessionConfig& config, SessionResult* result,
                  const std::string& snapshot_path) {
  std::vector<std::string>* failures = &result->check_failures;
  const std::vector<IngestRecord> acked = AckedBySequence(result->load);
  uint64_t expected = result->base_sequence;
  uint64_t ingested = 0;
  uint64_t sent = 0;
  for (const IngestRecord& record : acked) {
    if (record.first_sequence != expected) {
      failures->push_back("acked ranges not contiguous: expected sequence " +
                          std::to_string(expected) + ", got " +
                          std::to_string(record.first_sequence));
      break;
    }
    expected += record.receipts;
    ingested += record.ingested;
    sent += record.receipts;
  }
  if (ingested != sent) {
    failures->push_back("receipts_ingested sums to " +
                        std::to_string(ingested) + " of " +
                        std::to_string(sent) + " acked");
  }

  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(config.population->clb_path));
  api::FleetOptions options = ServerFleetOptions();
  options.num_threads = OracleThreads();
  CHURNLAB_ASSIGN_OR_RETURN(
      api::FleetHandle fleet,
      config.spec->recover
          ? api::FleetHandle::Restore(config.journal_oracle_snapshot, dataset,
                                      options.num_threads)
          : api::FleetHandle::Make(options, dataset));
  std::vector<retail::Receipt> batch;
  for (const IngestRecord& record : acked) {
    AppendReceipts(*config.population,
                   (*config.clients)[record.client][record.request],
                   record.lap, &batch);
    if (batch.size() >= kReplayBatch) {
      CHURNLAB_RETURN_NOT_OK(IngestAll(&fleet, &batch, failures));
    }
  }
  CHURNLAB_RETURN_NOT_OK(IngestAll(&fleet, &batch, failures));
  return fleet.SaveSnapshot(snapshot_path);
}

/// Read-only recovery of the journal copy taken when the load stopped;
/// the rebuilt fleet must equal the drained server's.
Status RecoverCrashCopy(const SessionConfig& config, const ServerPaths& copy,
                        const std::string& served_snapshot,
                        SessionResult* result) {
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(config.population->clb_path));
  serve::JournalOptions journal_options;
  journal_options.directory = copy.journal;
  journal_options.recover = true;
  journal_options.read_only = true;
  serve::JournalRecovery recovery;
  int64_t start = NowNs();
  CHURNLAB_ASSIGN_OR_RETURN(
      const serve::IngestJournal journal,
      serve::IngestJournal::Open(journal_options, &recovery));
  result->scan_s = static_cast<double>(NowNs() - start) * 1e-9;
  const api::FleetOptions options = ServerFleetOptions();
  start = NowNs();
  CHURNLAB_ASSIGN_OR_RETURN(
      const serve::ScoringFleet fleet,
      serve::ScoringFleet::Recover(recovery, copy.snapshot, options,
                                   &dataset.taxonomy(), options.num_threads,
                                   options.layout));
  result->replay_s = static_cast<double>(NowNs() - start) * 1e-9;
  const std::string recovered = copy.snapshot + ".recovered";
  CHURNLAB_RETURN_NOT_OK(fleet.SaveSnapshotToFile(recovered));
  return CompareSnapshots(served_snapshot, recovered,
                          "recovery of the journal as the load stopped",
                          &result->check_failures);
}

/// Restores the session's starting journal (none, or recover's pristine
/// copy), starts the server and records its set-up time. `traced` receives
/// the server when the session is traced.
Result<std::unique_ptr<Server>> StartServer(const SessionConfig& config,
                                            const ServerPaths& paths,
                                            SessionResult* result,
                                            TracedServer** traced) {
  std::error_code ignored;
  fs::remove_all(paths.journal, ignored);
  fs::remove(paths.snapshot, ignored);
  if (config.spec->recover) {
    fs::copy(config.pristine_journal, paths.journal,
             fs::copy_options::recursive);
  }
  double dataset_load_s = 0.0;
  const int64_t start = NowNs();
  std::unique_ptr<Server> server;
  if (config.traced) {
    TracedServer::Timings timings;
    CHURNLAB_ASSIGN_OR_RETURN(std::unique_ptr<TracedServer> started,
                              TracedServer::Start(config, paths, &timings));
    *traced = started.get();
    server = std::move(started);
    dataset_load_s = timings.dataset_load_s;
    if (config.spec->recover) {
      result->scan_s = timings.scan_s;
      result->replay_s = timings.replay_s;
    }
  } else {
    CHURNLAB_ASSIGN_OR_RETURN(
        server, ProductionServer::Start(config, paths, &dataset_load_s));
  }
  result->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  result->dataset_load_s.push_back(dataset_load_s);
  return server;
}

/// A start that serves nothing: timed for set-up, then drained. With
/// `check_recovery` on `recover`, the recovered fleet must also equal an
/// offline replay of the journaled frames.
Status TimeStart(const SessionConfig& config, const ServerPaths& paths,
                 bool check_recovery, SessionResult* result) {
  TracedServer* traced = nullptr;
  CHURNLAB_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                            StartServer(config, paths, result, &traced));
  CHURNLAB_RETURN_NOT_OK(server->Shutdown());
  if (!config.spec->recover || !check_recovery) return Status::OK();
  const std::string recovered = config.work_dir + "/recovered.snap";
  CHURNLAB_RETURN_NOT_OK(server->SaveSnapshot(recovered));
  return CompareSnapshots(config.journal_oracle_snapshot, recovered,
                          "recovered fleet vs offline replay of the journal",
                          &result->check_failures);
}

}  // namespace

Result<api::StateMemoryStats> ReplayLaps(const Population& population,
                                         int64_t laps,
                                         const std::string& snapshot_path) {
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::LoadDataset(population.clb_path));
  api::FleetOptions options = ServerFleetOptions();
  options.num_threads = OracleThreads();
  CHURNLAB_ASSIGN_OR_RETURN(api::FleetHandle fleet,
                            api::FleetHandle::Make(options, dataset));
  std::vector<std::string> failures;
  std::vector<retail::Receipt> batch;
  for (int64_t lap = 0; lap < laps; ++lap) {
    AppendLap(population, lap, &batch);
    CHURNLAB_RETURN_NOT_OK(IngestAll(&fleet, &batch, &failures));
  }
  if (!failures.empty()) return Status::Internal(failures.front());
  if (!snapshot_path.empty()) {
    CHURNLAB_RETURN_NOT_OK(fleet.SaveSnapshot(snapshot_path));
  }
  return fleet.Memory();
}

Result<SessionResult> RunSession(const SessionConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  SessionResult result;
  result.base_sequence = spec.recover ? config.journaled_receipts : 0;
  std::error_code ignored;
  fs::remove_all(config.work_dir, ignored);
  fs::create_directories(config.work_dir);
  const ServerPaths paths{config.work_dir + "/journal",
                          config.work_dir + "/fleet.snap"};

  // Set-up is timed on starts spread over the session, half before the
  // load and half after its checks: the host's speed changes for seconds
  // at a time, and back-to-back starts would all see the same phase.
  for (int i = 0; i < config.unserved_starts / 2; ++i) {
    CHURNLAB_RETURN_NOT_OK(TimeStart(config, paths, i == 0, &result));
  }
  TracedServer* traced = nullptr;
  CHURNLAB_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                            StartServer(config, paths, &result, &traced));

  LoadPlan plan;
  plan.population = config.population;
  plan.clients = config.clients;
  plan.first_lap = spec.recover ? kHistoryLaps : 0;
  plan.seconds = config.seconds;
  plan.read_rate = spec.read_rate;
  plan.snapshot_every = spec.snapshots ? config.scale->snapshot_every : 0;
  if (spec.recover) plan.preacked = config.population->customers;
  plan.seed = config.seed;
  result.load = RunLoad(server->port(), plan);
  for (const std::string& error : result.load.errors) {
    result.check_failures.push_back("request failed: " + error);
  }

  // With the clients stopped every acked round is journaled and synced:
  // copy the journal as a crash at this instant would leave it.
  const ServerPaths crash{config.work_dir + "/crash/journal",
                          config.work_dir + "/crash/fleet.snap"};
  const bool crash_copy = config.traced && !spec.recover;
  if (crash_copy) {
    fs::create_directories(config.work_dir + "/crash");
    fs::copy(paths.journal, crash.journal, fs::copy_options::recursive);
    if (fs::exists(paths.snapshot)) {
      fs::copy_file(paths.snapshot, crash.snapshot);
    }
  }
  CHURNLAB_RETURN_NOT_OK(server->Shutdown());
  const std::string served = config.work_dir + "/served.snap";
  CHURNLAB_RETURN_NOT_OK(server->SaveSnapshot(served));
  result.state_bytes_total = server->Memory().total_bytes;
  result.customers = server->NumCustomers();
  if (traced != nullptr) {
    result.spans = traced->TakeSpans();
    result.rounds = traced->TakeRounds();
  }
  server.reset();

  const std::string oracle = config.work_dir + "/oracle.snap";
  CHURNLAB_RETURN_NOT_OK(CheckAcked(config, &result, oracle));
  CHURNLAB_RETURN_NOT_OK(CompareSnapshots(
      oracle, served, "drained server vs offline replay in sequence order",
      &result.check_failures));
  if (crash_copy) {
    CHURNLAB_RETURN_NOT_OK(RecoverCrashCopy(config, crash, served, &result));
  }
  for (int i = config.unserved_starts / 2; i < config.unserved_starts; ++i) {
    CHURNLAB_RETURN_NOT_OK(TimeStart(config, paths, false, &result));
  }
  return result;
}

}  // namespace e2e
}  // namespace churnlab
