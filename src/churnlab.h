#ifndef CHURNLAB_CHURNLAB_H_
#define CHURNLAB_CHURNLAB_H_

/// \file
/// \brief The churnlab::api facade — the single header applications
/// include.
///
/// Everything an application needs sits behind three handles plus a few
/// data helpers (docs/API.md walks through each):
///
///   - ScorerHandle: batch scoring and per-customer explanation (wraps the
///     core stability model).
///   - FleetHandle: streaming multi-customer serving — sharded state,
///     batched ingestion, alerts, snapshot/restore (wraps src/serve/).
///   - EvalRunner: the paper's evaluations — Figure 1, grid search,
///     forecasting (wraps src/eval/).
///
/// Construction follows the library-wide `static Result<T> Make(Options)`
/// convention: options are validated eagerly and errors surface as Status,
/// never as exceptions or NaNs. Option and result structs are re-exported
/// here under churnlab::api so facade users need no subsystem includes.

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/failpoint.h"
#include "common/result.h"
#include "common/retry.h"
#include "core/stability_model.h"
#include "datagen/scenario.h"
#include "eval/experiment.h"
#include "eval/forecaster.h"
#include "eval/grid_search.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/threshold.h"
#include "net/backend.h"
#include "net/server.h"
#include "net/status_http.h"
#include "retail/dataset.h"
#include "serve/fleet.h"

namespace churnlab {
namespace api {

// ---------------------------------------------------------------------------
// Data: datasets and synthetic scenarios
// ---------------------------------------------------------------------------

using retail::Cohort;
using retail::CohortToString;
using retail::CustomerId;
using retail::Day;
using retail::Granularity;
using retail::ItemId;
using retail::kDaysPerMonth;
using retail::Receipt;

using Dataset = retail::Dataset;
using DatasetStats = retail::DatasetStats;
using ScenarioConfig = datagen::PaperScenarioConfig;

/// Loads a dataset by path: `*.clb` is the binary format, anything else is
/// treated as a CSV prefix (`<prefix>.receipts.csv` etc.).
Result<Dataset> LoadDataset(const std::string& path);

/// Generates the paper's synthetic scenario (loyal + defecting cohorts).
Result<Dataset> MakeScenario(const ScenarioConfig& config);

/// The scripted Figure-2 customer (coffee lost at month 20; milk, sponge
/// and cheese at month 22) embedded in a small population.
using Figure2Scenario = datagen::Figure2Scenario;
Result<Figure2Scenario> MakeFigure2Scenario();

// ---------------------------------------------------------------------------
// Batch scoring
// ---------------------------------------------------------------------------

using ScorerOptions = core::StabilityModelOptions;
using core::CustomerReport;
using core::CustomerWindowReport;
using core::NamedMissingProduct;
using core::ScoreMatrix;
using core::SignificanceProfile;
using core::StabilitySeries;

/// \brief Batch stability scoring and per-customer explanation.
///
/// \code
///   auto scorer = churnlab::api::ScorerHandle::Make({}).ValueOrDie();
///   auto scores = scorer.ScoreDataset(dataset).ValueOrDie();
/// \endcode
class ScorerHandle {
 public:
  static Result<ScorerHandle> Make(ScorerOptions options);

  /// Stability of every customer at every window (higher = more loyal).
  Result<ScoreMatrix> ScoreDataset(const Dataset& dataset) const;

  /// Stability series of one customer.
  Result<StabilitySeries> ScoreCustomer(const Dataset& dataset,
                                        CustomerId customer) const;

  /// Per-window walk-through with product-loss explanations (section 3.2).
  Result<CustomerReport> AnalyzeCustomer(const Dataset& dataset,
                                         CustomerId customer) const;

  /// Ranked significant-product table as seen by window `window` (the
  /// final window when negative).
  Result<SignificanceProfile> ProfileCustomer(const Dataset& dataset,
                                              CustomerId customer,
                                              int32_t window = -1) const;

  const ScorerOptions& options() const { return model_.options(); }

 private:
  explicit ScorerHandle(core::StabilityModel model)
      : model_(std::move(model)) {}

  core::StabilityModel model_;
};

// ---------------------------------------------------------------------------
// Streaming fleet serving
// ---------------------------------------------------------------------------

using serve::BatchReport;
using serve::CustomerQuery;
using serve::FleetAlert;
using serve::FleetHealth;
using serve::FleetOptions;
using serve::PoisonedShard;
using serve::RejectedReceipt;
using serve::ShardHealthStats;
using serve::StateMemoryStats;
/// Durable ingest journal (docs/ROBUSTNESS.md §Durability): the
/// write-ahead log the HTTP server appends every coalesced batch to
/// before applying or acknowledging it, plus the recovery summary a
/// crash restart produces.
using serve::FsyncPolicy;
using serve::FsyncPolicyToString;
using serve::IngestJournal;
using serve::JournalOptions;
using serve::JournalRecovery;
using serve::ParseFsyncPolicy;
using serve::SnapshotRef;
using MonitorPolicy = core::MonitorPolicy;
using StabilityAlert = core::StabilityAlert;
/// Fault injection (docs/ROBUSTNESS.md): arm failpoints programmatically or
/// via FailpointRegistry::Global().ArmFromSpec / the CHURNLAB_FAILPOINTS
/// environment variable; RetryPolicy shapes shard-task and snapshot-write
/// retries through FleetOptions::shard_retry.
using churnlab::FailpointRegistry;
using churnlab::RetryPolicy;

struct RecoveredFleet;

/// \brief Streaming multi-customer serving: sharded per-customer state,
/// batched ingestion, alerting, and bit-identical snapshot/restore.
///
/// The handle borrows the dataset's taxonomy (segment granularity maps
/// items through it); the dataset must outlive the handle.
///
/// \code
///   auto fleet = churnlab::api::FleetHandle::Make(options, dataset)
///                    .ValueOrDie();
///   auto report = fleet.IngestBatch(receipts).ValueOrDie();
///   for (const auto& alert : report.alerts) notify(alert);
/// \endcode
class FleetHandle {
 public:
  static Result<FleetHandle> Make(FleetOptions options,
                                  const Dataset& dataset);

  /// Ingests one receipt batch; receipts of one customer must be
  /// chronological within and across batches. Alerts and reports are
  /// byte-identical for any thread count.
  Result<BatchReport> IngestBatch(std::span<const Receipt> receipts);

  /// Closes all windows before the one containing `day` for every
  /// customer (models "no activity through day X").
  Result<BatchReport> AdvanceAllTo(Day day);

  /// End-of-stream flush: closes every customer's in-progress window.
  Result<BatchReport> FinishAll();

  size_t NumCustomers() const { return fleet_.NumCustomers(); }
  const FleetOptions& options() const { return fleet_.options(); }

  /// Point-in-time fleet health: per-shard receipt/reject/alert counts,
  /// retry and poison state, population, task-latency histograms, and the
  /// worker pool's queue depth. Call between operations.
  FleetHealth Health() const { return fleet_.HealthReport(); }

  /// Byte accounting of the fleet's customer state, summed over shards.
  /// Publishes the `churnlab.serve.bytes_total` gauge (plus per-shard
  /// `churnlab.serve.bytes{shard=k}` under detailed timing). Call between
  /// operations, like Health().
  StateMemoryStats Memory() const { return fleet_.MemoryUsage(); }

  /// One customer's latest stability plus state-memory bytes; NotFound for
  /// a customer the fleet has never seen. Locks only the customer's shard.
  Result<CustomerQuery> QueryCustomer(CustomerId customer) {
    return fleet_.QueryCustomer(customer);
  }

  /// Writes a versioned, CRC-framed snapshot of the full fleet state
  /// (truncating `path`).
  Status SaveSnapshot(const std::string& path) const;

  /// Appends one snapshot *generation* to `path`; Restore loads the newest
  /// valid generation, so a torn tail loses at most the last append (see
  /// docs/ROBUSTNESS.md §Snapshot recovery).
  Status AppendSnapshot(const std::string& path) const;

  /// Rebuilds a fleet from a snapshot; continues bit-identically.
  /// Threads are never serialized; the restored fleet uses `num_threads`
  /// workers (1 when 0), with identical results for any choice, and the
  /// default values of the other runtime options (see OpenSnapshot).
  static Result<FleetHandle> Restore(const std::string& path,
                                     const Dataset& dataset,
                                     size_t num_threads = 0);

 private:
  friend class ServerHandle;
  friend Result<FleetHandle> OpenSnapshot(const std::string& path,
                                          const Dataset& dataset,
                                          const FleetOptions& runtime);
  friend struct RecoveredFleet;
  friend Result<RecoveredFleet> RecoverFleet(const std::string& journal_dir,
                                             const std::string& snapshot_path,
                                             FleetOptions fresh_options,
                                             const Dataset& dataset);

  explicit FleetHandle(serve::ScoringFleet fleet)
      : fleet_(std::move(fleet)) {}

  serve::ScoringFleet fleet_;
};

/// The canonical snapshot-open path, shared by `serve-replay --resume`, the
/// HTTP server, and FleetHandle::Restore: understands both bare "CHLFLEET"
/// snapshots and append-mode "CHLFGENS" generation files, falls back to the
/// newest valid generation on a torn or corrupted tail, and reports that
/// fallback uniformly (the `snapshot_generation_fallback` structured event
/// plus the `churnlab.serve.snapshot_fallbacks` counter). Scorer, policy,
/// shard count and granularity come from the snapshot; the runtime options
/// num_threads, quarantine_malformed and shard_retry come from `runtime`.
Result<FleetHandle> OpenSnapshot(const std::string& path,
                                 const Dataset& dataset,
                                 const FleetOptions& runtime = {});

/// A fleet rebuilt from a journal by RecoverFleet, plus the recovery
/// summary (watermark, replayed frame/receipt counts, next sequence; the
/// replayed frames themselves are released after the rebuild).
struct RecoveredFleet {
  FleetHandle fleet;
  JournalRecovery recovery;
};

/// Read-only crash recovery for offline tools (`serve-replay --recover`):
/// opens `journal_dir` without mutating it, restores the checkpointed
/// snapshot generation from `snapshot_path` with `fresh_options`' runtime
/// options (see OpenSnapshot), or builds a fresh fleet from `fresh_options`
/// when no checkpoint was ever written, and replays every
/// journal frame above the durable watermark in arrival-sequence order.
/// The result is byte-identical to the fleet the crashed server held after
/// its last journaled batch. Torn trailing frames are discarded (counted
/// in the recovery summary); any interior corruption or sequence gap is a
/// hard DataLoss error, never a silent skip.
Result<RecoveredFleet> RecoverFleet(const std::string& journal_dir,
                                    const std::string& snapshot_path,
                                    FleetOptions fresh_options,
                                    const Dataset& dataset);

// ---------------------------------------------------------------------------
// Network serving
// ---------------------------------------------------------------------------

using net::AdmissionGate;
using net::HttpParser;
using net::IngestCoalescer;
using net::ServerOptions;
using net::StatusToHttp;

/// \brief The HTTP/1.1 scoring front end over a FleetHandle
/// (docs/API.md "HTTP API").
///
/// Endpoints: POST /v1/ingest (coalesced, admission-controlled), GET
/// /v1/customers/{id}, GET /v1/health, GET /metrics (Prometheus), POST
/// /v1/snapshot. The handle owns the fleet; stopping the server (drain)
/// flushes a final snapshot to `snapshot_path` when one is configured.
///
/// \code
///   auto server = churnlab::api::ServerHandle::Make(
///       {.http = {.port = 8080}, .snapshot_path = "fleet.snap"},
///       std::move(fleet)).ValueOrDie();
///   server.Start().Abort("serve-http");
///   server.InstallSignalHandler().Abort("serve-http");
///   server.Wait().Abort("serve-http");  // returns after SIGTERM drain
/// \endcode
class ServerHandle {
 public:
  struct Options {
    net::ServerOptions http;
    /// Drain-time / POST /v1/snapshot destination; empty disables both.
    std::string snapshot_path;
    /// Append generations (crash-tolerant) versus truncate-and-write.
    /// Must stay true when a journal is configured: checkpoints name the
    /// exact snapshot generation they cover, and a truncating snapshot
    /// would destroy the previous checkpoint's bytes mid-write.
    bool snapshot_append = true;
    /// Durable ingest journal directory; empty disables journaling. When
    /// set, every coalesced ingest batch is appended (and synced per
    /// `journal_fsync`) BEFORE it is applied or acknowledged, and every
    /// snapshot doubles as a checkpoint that truncates the journal.
    /// Requires a snapshot_path and snapshot_append.
    std::string journal_dir;
    /// When to fsync journal appends (serve::FsyncPolicy).
    serve::FsyncPolicy journal_fsync = serve::FsyncPolicy::kBatch;
  };

  static Result<ServerHandle> Make(Options options, FleetHandle fleet);

  /// Crash recovery: opens `options.journal_dir` for replay + append,
  /// rebuilds the fleet from the checkpointed snapshot generation in
  /// `options.snapshot_path` plus the journal frames above the durable
  /// watermark (see RecoverFleet), and returns a server whose arrival
  /// sequence numbering continues where the crashed process stopped.
  /// `fleet_options` seeds a fresh fleet when no checkpoint was written
  /// before the crash, and supplies the runtime options of a restored one.
  /// A non-zero `num_threads` overrides fleet_options.num_threads; `layout`
  /// is ignored (see serve::StateLayout). When `recovery_out` is non-null
  /// it receives the recovery summary (frames released).
  static Result<ServerHandle> Recover(
      Options options, FleetOptions fleet_options, const Dataset& dataset,
      size_t num_threads = 0,
      serve::StateLayout layout = serve::StateLayout::kCompact,
      JournalRecovery* recovery_out = nullptr);

  /// Binds, listens, and starts serving (returns immediately).
  Status Start();

  /// The bound port (useful with an ephemeral `http.port = 0`).
  uint16_t port() const { return server_->port(); }

  /// Routes SIGTERM/SIGINT to a graceful drain (one server per process).
  Status InstallSignalHandler() { return server_->InstallSignalHandler(); }

  /// Begins a graceful drain: acceptor stops, in-flight requests finish,
  /// a final snapshot is flushed. Thread-safe.
  void RequestDrain() { server_->RequestDrain(); }

  /// Blocks until the drain completed; returns the final flush's status.
  Status Wait() { return server_->Wait(); }

  /// RequestDrain + Wait.
  Status Shutdown() { return server_->Shutdown(); }

  /// The served fleet. Safe to inspect after Wait()/Shutdown(); while the
  /// server is running, use the HTTP endpoints instead.
  FleetHandle& fleet() { return *fleet_; }

 private:
  ServerHandle(std::unique_ptr<FleetHandle> fleet,
               std::unique_ptr<serve::IngestJournal> journal,
               std::unique_ptr<net::FleetBackend> backend,
               std::unique_ptr<net::HttpServer> server)
      : fleet_(std::move(fleet)),
        journal_(std::move(journal)),
        backend_(std::move(backend)),
        server_(std::move(server)) {}

  /// Shared tail of Make and Recover: validates journal/snapshot option
  /// coupling and wires fleet -> backend -> server.
  static Result<ServerHandle> Assemble(
      Options options, std::unique_ptr<FleetHandle> fleet,
      std::unique_ptr<serve::IngestJournal> journal);

  // Held as pointers so the handle stays movable while the server keeps
  // stable addresses for the backend, journal, and fleet.
  std::unique_ptr<FleetHandle> fleet_;
  std::unique_ptr<serve::IngestJournal> journal_;
  std::unique_ptr<net::FleetBackend> backend_;
  std::unique_ptr<net::HttpServer> server_;
};

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

using eval::Figure1Options;
using eval::Figure1Result;
using eval::ForecastOptions;
using eval::ForecastResult;
using eval::GridSearchOptions;
using eval::GridSearchResult;
/// Plain-text/CSV result rendering, re-exported for facade-only programs.
using eval::TextTable;
/// Detection-quality primitives, re-exported for facade-only programs.
using eval::AurocPerWindow;
using eval::ConfusionAtThreshold;
using eval::ConfusionMatrix;
using eval::LiftAtFraction;
using eval::OperatingPoint;
using eval::ScoreOrientation;
using eval::SelectForRecall;
using eval::SelectMaxF1;
using eval::WindowAuroc;

struct EvalRunnerOptions {
  /// Worker threads for the evaluation sweeps; stamped over the
  /// per-evaluation options' num_threads fields. Results are identical for
  /// any thread count.
  size_t num_threads = 1;
};

/// \brief The paper's evaluations behind one handle.
class EvalRunner {
 public:
  static Result<EvalRunner> Make(EvalRunnerOptions options = {});

  /// Figure 1: stability vs RFM detection AUROC by month.
  Result<Figure1Result> Figure1(const Dataset& dataset,
                                Figure1Options options) const;

  /// Out-of-fold AUROC of future-defection prediction.
  Result<ForecastResult> Forecast(const Dataset& dataset,
                                  ForecastOptions options) const;

  /// Cross-validated (window span, alpha) search.
  Result<GridSearchResult> GridSearch(const Dataset& dataset,
                                      GridSearchOptions options) const;

 private:
  explicit EvalRunner(EvalRunnerOptions options) : options_(options) {}

  EvalRunnerOptions options_;
};

}  // namespace api
}  // namespace churnlab

#endif  // CHURNLAB_CHURNLAB_H_
