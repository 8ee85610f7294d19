#include "churnlab.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace churnlab {
namespace api {

Result<Dataset> LoadDataset(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("dataset path is empty");
  }
  if (EndsWith(path, ".clb")) return retail::Dataset::LoadBinary(path);
  return retail::Dataset::LoadCsv(path);
}

Result<Dataset> MakeScenario(const ScenarioConfig& config) {
  return datagen::MakePaperDataset(config);
}

Result<Figure2Scenario> MakeFigure2Scenario() {
  return datagen::MakeFigure2Scenario();
}

// ---------------------------------------------------------------------------
// ScorerHandle
// ---------------------------------------------------------------------------

Result<ScorerHandle> ScorerHandle::Make(ScorerOptions options) {
  CHURNLAB_ASSIGN_OR_RETURN(core::StabilityModel model,
                            core::StabilityModel::Make(std::move(options)));
  return ScorerHandle(std::move(model));
}

Result<ScoreMatrix> ScorerHandle::ScoreDataset(const Dataset& dataset) const {
  return model_.ScoreDataset(dataset);
}

Result<StabilitySeries> ScorerHandle::ScoreCustomer(
    const Dataset& dataset, CustomerId customer) const {
  return model_.ScoreCustomer(dataset, customer);
}

Result<CustomerReport> ScorerHandle::AnalyzeCustomer(
    const Dataset& dataset, CustomerId customer) const {
  return model_.AnalyzeCustomer(dataset, customer);
}

Result<SignificanceProfile> ScorerHandle::ProfileCustomer(
    const Dataset& dataset, CustomerId customer, int32_t window) const {
  return model_.ProfileCustomer(dataset, customer, window);
}

// ---------------------------------------------------------------------------
// FleetHandle
// ---------------------------------------------------------------------------

Result<FleetHandle> FleetHandle::Make(FleetOptions options,
                                      const Dataset& dataset) {
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::ScoringFleet fleet,
      serve::ScoringFleet::Make(std::move(options), &dataset.taxonomy()));
  return FleetHandle(std::move(fleet));
}

Result<BatchReport> FleetHandle::IngestBatch(
    std::span<const Receipt> receipts) {
  return fleet_.IngestBatch(receipts);
}

Result<BatchReport> FleetHandle::AdvanceAllTo(Day day) {
  return fleet_.AdvanceAllTo(day);
}

Result<BatchReport> FleetHandle::FinishAll() { return fleet_.FinishAll(); }

Status FleetHandle::SaveSnapshot(const std::string& path) const {
  return fleet_.SaveSnapshotToFile(path);
}

Status FleetHandle::AppendSnapshot(const std::string& path) const {
  return fleet_.AppendSnapshotToFile(path);
}

Result<FleetHandle> FleetHandle::Restore(const std::string& path,
                                         const Dataset& dataset,
                                         size_t num_threads) {
  FleetOptions runtime;
  runtime.num_threads = num_threads;
  return OpenSnapshot(path, dataset, runtime);
}

Result<FleetHandle> OpenSnapshot(const std::string& path,
                                 const Dataset& dataset,
                                 const FleetOptions& runtime) {
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::ScoringFleet fleet,
      serve::ScoringFleet::RestoreFromFile(path, &dataset.taxonomy(),
                                           runtime));
  return FleetHandle(std::move(fleet));
}

namespace {

/// What one crash recovery yields: the journal, opened with `recover`; the
/// fleet rebuilt from the checkpointed snapshot plus the journal frames;
/// and the scan summary, whose frames and receipts are released once
/// replayed.
struct Recovery {
  serve::IngestJournal journal;
  serve::ScoringFleet fleet;
  serve::JournalRecovery summary;
};

Result<Recovery> RecoverFromJournal(serve::JournalOptions journal_options,
                                    const std::string& snapshot_path,
                                    const FleetOptions& fleet_options,
                                    const Dataset& dataset,
                                    size_t num_threads) {
  journal_options.recover = true;
  serve::JournalRecovery summary;
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::IngestJournal journal,
      serve::IngestJournal::Open(journal_options, &summary));
  CHURNLAB_ASSIGN_OR_RETURN(
      serve::ScoringFleet fleet,
      serve::ScoringFleet::Recover(summary, snapshot_path, fleet_options,
                                   &dataset.taxonomy(), num_threads));
  summary.frames = {};
  summary.receipts = {};
  return Recovery{std::move(journal), std::move(fleet), std::move(summary)};
}

}  // namespace

Result<RecoveredFleet> RecoverFleet(const std::string& journal_dir,
                                    const std::string& snapshot_path,
                                    FleetOptions fresh_options,
                                    const Dataset& dataset) {
  serve::JournalOptions journal_options;
  journal_options.directory = journal_dir;
  journal_options.read_only = true;
  CHURNLAB_ASSIGN_OR_RETURN(
      Recovery recovery,
      RecoverFromJournal(journal_options, snapshot_path, fresh_options,
                         dataset, /*num_threads=*/0));
  return RecoveredFleet{FleetHandle(std::move(recovery.fleet)),
                        std::move(recovery.summary)};
}

// ---------------------------------------------------------------------------
// ServerHandle
// ---------------------------------------------------------------------------

Result<ServerHandle> ServerHandle::Make(Options options, FleetHandle fleet) {
  auto owned_fleet = std::make_unique<FleetHandle>(std::move(fleet));
  std::unique_ptr<serve::IngestJournal> journal;
  if (!options.journal_dir.empty()) {
    serve::JournalOptions journal_options;
    journal_options.directory = options.journal_dir;
    journal_options.fsync = options.journal_fsync;
    CHURNLAB_ASSIGN_OR_RETURN(serve::IngestJournal opened,
                              serve::IngestJournal::Open(journal_options));
    journal = std::make_unique<serve::IngestJournal>(std::move(opened));
  }
  return Assemble(std::move(options), std::move(owned_fleet),
                  std::move(journal));
}

Result<ServerHandle> ServerHandle::Recover(Options options,
                                           FleetOptions fleet_options,
                                           const Dataset& dataset,
                                           size_t num_threads,
                                           serve::StateLayout /*layout*/,
                                           JournalRecovery* recovery_out) {
  if (options.journal_dir.empty()) {
    return Status::InvalidArgument(
        "ServerHandle::Recover requires a journal directory");
  }
  serve::JournalOptions journal_options;
  journal_options.directory = options.journal_dir;
  journal_options.fsync = options.journal_fsync;
  CHURNLAB_ASSIGN_OR_RETURN(
      Recovery recovery,
      RecoverFromJournal(journal_options, options.snapshot_path,
                         fleet_options, dataset, num_threads));
  if (recovery_out != nullptr) *recovery_out = std::move(recovery.summary);
  return Assemble(
      std::move(options),
      std::make_unique<FleetHandle>(FleetHandle(std::move(recovery.fleet))),
      std::make_unique<serve::IngestJournal>(std::move(recovery.journal)));
}

Result<ServerHandle> ServerHandle::Assemble(
    Options options, std::unique_ptr<FleetHandle> fleet,
    std::unique_ptr<serve::IngestJournal> journal) {
  if (journal != nullptr) {
    if (options.snapshot_path.empty()) {
      return Status::InvalidArgument(
          "journaling requires a snapshot path for checkpoints");
    }
    // Arrival-sequence numbering continues where the journal stops, so a
    // recovered server's journal frames extend the crashed server's
    // sequence space with no gap or overlap.
    options.http.coalescer.first_sequence = journal->next_sequence();
  }
  net::FleetBackend::Options backend_options;
  backend_options.snapshot_path = std::move(options.snapshot_path);
  backend_options.journal = journal.get();
  auto backend = std::make_unique<net::FleetBackend>(
      &fleet->fleet_, std::move(backend_options));
  CHURNLAB_ASSIGN_OR_RETURN(
      std::unique_ptr<net::HttpServer> server,
      net::HttpServer::Make(std::move(options.http), backend.get()));
  return ServerHandle(std::move(fleet), std::move(journal),
                      std::move(backend), std::move(server));
}

Status ServerHandle::Start() { return server_->Start(); }

// ---------------------------------------------------------------------------
// EvalRunner
// ---------------------------------------------------------------------------

Result<EvalRunner> EvalRunner::Make(EvalRunnerOptions options) {
  if (options.num_threads == 0) options.num_threads = 1;
  return EvalRunner(options);
}

Result<Figure1Result> EvalRunner::Figure1(const Dataset& dataset,
                                          Figure1Options options) const {
  options.num_threads = options_.num_threads;
  CHURNLAB_ASSIGN_OR_RETURN(const eval::ExperimentRunner runner,
                            eval::ExperimentRunner::Make(std::move(options)));
  return runner.RunOnDataset(dataset);
}

Result<ForecastResult> EvalRunner::Forecast(const Dataset& dataset,
                                            ForecastOptions options) const {
  CHURNLAB_ASSIGN_OR_RETURN(
      const eval::StabilityForecaster forecaster,
      eval::StabilityForecaster::Make(std::move(options)));
  return forecaster.Run(dataset);
}

Result<GridSearchResult> EvalRunner::GridSearch(
    const Dataset& dataset, GridSearchOptions options) const {
  options.num_threads = options_.num_threads;
  CHURNLAB_ASSIGN_OR_RETURN(
      const eval::StabilityGridSearch search,
      eval::StabilityGridSearch::Make(std::move(options)));
  return search.Run(dataset);
}

}  // namespace api
}  // namespace churnlab
