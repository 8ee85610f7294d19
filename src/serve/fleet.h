#ifndef CHURNLAB_SERVE_FLEET_H_
#define CHURNLAB_SERVE_FLEET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/symbol_mapper.h"
#include "obs/metrics.h"
#include "retail/taxonomy.h"
#include "retail/types.h"
#include "serve/journal.h"
#include "serve/state_store.h"

namespace churnlab {
namespace serve {

/// Kept only for the end-to-end benchmark, which still names
/// FleetOptions::layout and passes it to the two Recover functions that
/// take a StateLayout. Customer state has one layout; the value is
/// ignored. All three go away with the benchmark change that deletes its
/// TimedBackend.
enum class StateLayout : uint8_t { kCompact = 0 };

struct FleetOptions {
  core::OnlineStabilityScorer::Options scorer;
  core::MonitorPolicy policy;
  /// Shards of the underlying CustomerStateStore (>= 1).
  size_t num_shards = 16;
  /// Worker threads fanning batches out across shards (0 is clamped to 1).
  /// Results — alerts, reports, snapshots — are byte-identical for any
  /// thread count (guaranteed by tests).
  size_t num_threads = 1;
  /// Symbol space the monitors observe (the paper's experiments run at
  /// segment granularity).
  retail::Granularity granularity = retail::Granularity::kSegment;
  /// Unused (see StateLayout).
  StateLayout layout = StateLayout::kCompact;
  /// Graceful degradation (docs/ROBUSTNESS.md): when true, an item whose
  /// own input is rejected (an invalid customer id, or a day the customer's
  /// stream rejects) is quarantined into BatchReport::rejected instead of
  /// failing the operation. When false, the first such item fails the
  /// operation at once, without a retry.
  bool quarantine_malformed = true;
  /// Backoff for failed shard tasks (injected faults and exceptions, never
  /// rejected items) and snapshot file writes. A shard task that still
  /// fails after `shard_retry.max_retries` retries with no progress (the
  /// count restarts whenever a retry gets past the item that failed)
  /// poisons only its shard.
  RetryPolicy shard_retry;
};

/// One raised alert, attributed to its customer.
struct FleetAlert {
  retail::CustomerId customer = retail::kInvalidCustomer;
  /// Index within the IngestBatch span of the receipt whose ingestion
  /// closed the alerting window; 0 for AdvanceAllTo / FinishAll alerts.
  size_t batch_index = 0;
  core::StabilityAlert alert;
};

/// One quarantined item with the reason it was rejected: a receipt kept
/// out of the fleet state, or a customer whose stream rejected a sweep.
struct RejectedReceipt {
  retail::CustomerId customer = retail::kInvalidCustomer;
  /// Index within the IngestBatch span; 0 for a sweep.
  size_t batch_index = 0;
  retail::Day day = 0;  ///< The receipt's day, or the sweep's.
  Status reason;
};

/// A shard whose task exhausted its retries. The shard's state is frozen
/// (subsequent receipts routed to it are quarantined); the rest of the
/// fleet keeps serving.
struct PoisonedShard {
  size_t shard = 0;
  Status reason;
};

/// Live health of one shard (see ScoringFleet::HealthReport). Counts are
/// cumulative over the fleet's lifetime.
struct ShardHealthStats {
  size_t shard = 0;
  /// OK while serving; the poisoning error once out of service.
  Status status;
  uint64_t receipts = 0;  ///< Receipts ingested by this shard.
  uint64_t rejected = 0;  ///< Items quarantined by this shard.
  uint64_t alerts = 0;    ///< Alerts raised by this shard.
  uint64_t retries = 0;   ///< Retry attempts of this shard's tasks.
  size_t customers = 0;   ///< Current shard population.
  /// Receipts routed to this shard by the most recent IngestBatch — the
  /// per-shard ingress pressure (a queue-depth proxy for skew detection).
  size_t last_batch_receipts = 0;
  /// Per-shard task latency (microseconds); empty unless detailed timing
  /// is enabled (obs::SetDetailedTiming).
  obs::HistogramSnapshot task_latency_us;
};

/// Fleet-wide health: every shard plus whole-fleet aggregates.
struct FleetHealth {
  std::vector<ShardHealthStats> shards;
  size_t poisoned_shards = 0;
  uint64_t receipts_total = 0;
  size_t customers_total = 0;
  /// Tasks queued but not yet running on the fleet's pool (0 while
  /// single-threaded or before the first multi-threaded operation).
  size_t queue_depth = 0;
};

/// What one fleet operation did.
struct BatchReport {
  std::vector<FleetAlert> alerts;
  size_t receipts_ingested = 0;
  /// Customers seen for the first time by this operation.
  size_t new_customers = 0;
  /// Quarantined items, sorted by (batch_index, customer), so the list is
  /// deterministic for any thread count (empty unless
  /// FleetOptions::quarantine_malformed).
  std::vector<RejectedReceipt> rejected;
  /// Shards that are out of service as of this operation (newly poisoned or
  /// already poisoned), sorted by shard index.
  std::vector<PoisonedShard> poisoned;
};

/// The slice of a merged BatchReport belonging to receipts
/// [begin_index, end_index) of the ingested span. Alerts and rejections are
/// filtered to the range and their batch_index rebased by -begin_index, so
/// a caller that contributed that sub-span of a coalesced batch sees the
/// same report it would have received from ingesting the sub-span alone
/// (the network layer's ingest coalescer demultiplexes responses with
/// this). receipts_ingested counts the range's receipts minus its
/// rejections; new_customers is not attributable to a sub-span and is
/// reported as 0; poisoned is fleet-global and copied whole.
BatchReport SliceBatchReport(const BatchReport& merged, size_t begin_index,
                             size_t end_index);

/// Point-in-time view of one customer (see ScoringFleet::QueryCustomer).
struct CustomerQuery {
  retail::CustomerId customer = retail::kInvalidCustomer;
  /// Shard holding the customer's state.
  size_t shard = 0;
  /// Stability of the most recently closed window (1.0 before any window
  /// has closed — "no evidence of change").
  double stability = 1.0;
  /// Bytes of state attributable to this customer (scalar slot + live
  /// counter blocks; shared per-shard tables excluded).
  size_t state_bytes = 0;
};

/// \brief Batched multi-customer scoring service over a sharded state
/// store.
///
/// IngestBatch partitions a receipt batch by shard, fans the shards out
/// over a ThreadPool, and merges per-shard alerts into one deterministic
/// report. The full fleet state can be snapshotted to a versioned,
/// CRC-framed binary file and restored to continue bit-identically (see
/// docs/API.md for the state machine and snapshot format).
///
/// Fault tolerance (docs/ROBUSTNESS.md): malformed receipts are quarantined
/// into BatchReport::rejected, failed shard tasks are retried with capped
/// exponential backoff and poison only their shard after exhaustion, and
/// RestoreFromFile falls back to the newest valid generation of an
/// append-mode snapshot on a torn tail. Failpoint sites: serve.ingest.batch,
/// serve.ingest.receipt (key = customer id), serve.shard.task (key = shard
/// index), serve.snapshot.write_frame / serve.snapshot.read_frame (key =
/// shard index).
///
/// \code
///   auto fleet = ScoringFleet::Make(options, &dataset.taxonomy())
///                    .ValueOrDie();
///   for (std::span<const retail::Receipt> batch : batches) {
///     auto report = fleet.IngestBatch(batch).ValueOrDie();
///     for (const FleetAlert& a : report.alerts) notify(a);
///   }
///   CHURNLAB_RETURN_NOT_OK(fleet.SaveSnapshotToFile("fleet.snap"));
/// \endcode
class ScoringFleet {
 public:
  /// Validates the options, per the library-wide `static Result<T>
  /// Make(Options)` convention (docs/API.md). `taxonomy` is borrowed and
  /// must outlive the fleet; it is required for segment granularity and
  /// ignored for product granularity.
  static Result<ScoringFleet> Make(FleetOptions options,
                                   const retail::Taxonomy* taxonomy);

  /// Ingests one batch. Receipts of one customer must appear in
  /// chronological order within the batch and across batches (the
  /// per-customer stream contract of OnlineStabilityScorer::Observe);
  /// receipts of distinct customers need no mutual order. Alerts are
  /// sorted by (batch_index, customer, window_index, kind), so the report
  /// is identical for any thread count.
  ///
  /// Item errors (an invalid customer id; a day not chronological, before
  /// the origin or past the 2^20-window horizon; a symbol past 2^24) are
  /// quarantined into `rejected` with quarantine_malformed (the default),
  /// else fail the call at once — the fleet may have ingested part of the
  /// batch; treat it as fatal. They are never retried. Shard faults (an
  /// injected failpoint or an exception) are retried per
  /// FleetOptions::shard_retry; a shard that exhausts its retries is
  /// poisoned (reported in `poisoned`) and its unprocessed receipts — in
  /// this and every later batch — are quarantined.
  Result<BatchReport> IngestBatch(std::span<const retail::Receipt> receipts);

  /// Closes all windows before the one containing `day` for every known
  /// customer ("no activity through day" advancement). Alerts are sorted
  /// by (customer, window_index, kind). A customer whose stream rejects
  /// `day` is an item error as in IngestBatch, quarantined under
  /// batch_index 0 and `day` with its state unchanged; faults as there.
  Result<BatchReport> AdvanceAllTo(retail::Day day);

  /// Flushes every customer's in-progress window and evaluates it against
  /// the policy (end-of-stream). Never-fed customers contribute nothing.
  /// Alerts are sorted, and errors settled, as in AdvanceAllTo.
  Result<BatchReport> FinishAll();

  size_t NumCustomers() const { return store_.NumCustomers(); }
  const FleetOptions& options() const { return options_; }

  /// Health of one shard: OK while serving, the poisoning error once the
  /// shard's task exhausted its retries.
  const Status& ShardHealth(size_t shard) const {
    return shard_health_[shard];
  }

  /// Point-in-time fleet health: per-shard cumulative counts, retry/poison
  /// state, population, latency histograms, and the pool's queue depth.
  /// Thread-compatible: call between fleet operations (the CLI samples it
  /// per batch), not concurrently with one.
  FleetHealth HealthReport() const;

  /// Byte accounting summed over all shards (see StateMemoryStats). Also
  /// publishes the `churnlab.serve.bytes_total` gauge, plus per-shard
  /// `churnlab.serve.bytes{shard=k}` gauges when detailed timing is enabled
  /// (obs::SetDetailedTiming). Same calling convention as HealthReport:
  /// between fleet operations, not concurrently with one.
  StateMemoryStats MemoryUsage() const;

  /// Point-in-time view of one customer: latest stability plus state-memory
  /// bytes (the payload of the network front end's GET /v1/customers/{id}).
  /// NotFound for a customer the fleet has never seen. Locks only the
  /// customer's shard, so it may run concurrently with operations touching
  /// other shards — but, like HealthReport, not concurrently with a fleet
  /// operation that may touch the same shard.
  Result<CustomerQuery> QueryCustomer(retail::CustomerId customer);

  /// Serializes the full fleet — versioned header with every option, then
  /// one length- and CRC32-framed frame per shard — so Restore continues
  /// bit-identically from this point. Only fails when a write-path
  /// failpoint injects an error.
  Status SaveSnapshot(BinaryWriter* writer) const;
  /// Writes a bare snapshot to `path` (truncating), retrying the file
  /// write per FleetOptions::shard_retry.
  Status SaveSnapshotToFile(const std::string& path) const;
  /// Appends one CRC-framed snapshot *generation* to `path` (append-only
  /// "CHLFGENS" format; see docs/ROBUSTNESS.md) and fsyncs it before
  /// returning. RestoreFromFile loads the newest valid generation, so a
  /// torn tail from a crashed writer loses at most the last append.
  Status AppendSnapshotToFile(const std::string& path) const;
  /// As AppendSnapshotToFile, additionally returning the exact identity
  /// (size + CRC32) of the appended generation so a journal checkpoint can
  /// name it. Recovery then restores *that* generation — never a newer
  /// orphan one whose receipts are still in the journal.
  Result<SnapshotRef> AppendSnapshotGeneration(const std::string& path) const;

  /// Rebuilds a fleet from a snapshot; `taxonomy` is borrowed as in Make.
  /// Scorer, policy, shard count and granularity are read from the
  /// snapshot header. The runtime options, which are never serialized,
  /// come from `runtime`: num_threads (1 when 0), quarantine_malformed and
  /// shard_retry. Results are identical for any thread count.
  static Result<ScoringFleet> Restore(BinaryReader* reader,
                                      const retail::Taxonomy* taxonomy,
                                      const FleetOptions& runtime = {});
  /// Restores from a bare snapshot ("CHLFLEET") or an append-mode
  /// generation file ("CHLFGENS"). For generation files the newest valid
  /// generation wins; a torn or corrupted tail is skipped with a
  /// structured warning and counts on churnlab.serve.snapshot_fallbacks.
  static Result<ScoringFleet> RestoreFromFile(
      const std::string& path, const retail::Taxonomy* taxonomy,
      const FleetOptions& runtime = {});

  /// Crash recovery (docs/ROBUSTNESS.md §Durability): rebuilds the fleet a
  /// crashed server would have reached, from the journal scan `recovery`
  /// (IngestJournal::Open) plus the checkpointed snapshot.
  ///
  /// The base state is the snapshot `recovery.snapshot` names — the exact
  /// generation of `snapshot_path` whose size and CRC match (DataLoss when
  /// absent), restored with `fresh_options`' runtime options (see Restore),
  /// or a fresh fleet built from `fresh_options` when the journal was never
  /// checkpointed against a snapshot. A non-zero `num_threads` overrides
  /// fresh_options.num_threads; `layout` is ignored. Every journaled
  /// receipt is then replayed in one shard fan-out, each shard applying its
  /// receipts in sequence order straight from `recovery.receipts` (no
  /// copy). That reproduces the pre-crash state byte-for-byte: a customer's
  /// state depends only on its own receipts in arrival order, so coalesced
  /// batch boundaries do not matter. Item errors are quarantined as when
  /// replaying the frames one IngestBatch each; with quarantine off the
  /// first one in sequence order fails the replay, in the context
  /// "replaying journal frame at sequence N" of its frame. The shard retry
  /// budget is per stuck receipt (see FleetOptions::shard_retry), so sparse
  /// transient faults poison no shard over the whole replay. The replay
  /// counts as one batch in the serve metrics and in
  /// ShardHealthStats::last_batch_receipts.
  ///
  /// The replay runs on every core: a replay-only pool of
  /// max(num_threads, hardware threads) workers, dropped when the replay
  /// ends. num_threads is the serving count: the returned fleet reports it
  /// in options() and fans out with it from its first operation on.
  static Result<ScoringFleet> Recover(
      const JournalRecovery& recovery, const std::string& snapshot_path,
      const FleetOptions& fresh_options, const retail::Taxonomy* taxonomy,
      size_t num_threads = 0, StateLayout layout = StateLayout::kCompact);

 private:
  ScoringFleet(FleetOptions options, CustomerStateStore store,
               core::SymbolMapper mapper);

  /// Maps a receipt's items into the sorted, deduplicated symbol set the
  /// monitors observe. `scratch` is reused across receipts.
  void MapSymbols(const retail::Receipt& receipt,
                  std::vector<core::Symbol>* scratch) const;

  /// IngestBatch; when the call fails on a receipt, `failed_index` (if
  /// non-null) receives its index in `receipts` (see RunShards).
  Result<BatchReport> Ingest(std::span<const retail::Receipt> receipts,
                             size_t* failed_index);

  /// The one shard fan-out of Ingest (`by_shard`: each shard's batch
  /// indices; runs the shards with receipts) and the sweeps (`by_shard`
  /// null; runs every shard). Runs `step(shard, accessor, output)` on each
  /// healthy shard under its lock, behind the serve.shard.task failpoint
  /// and the shard_retry loop, then merges one sorted report. With
  /// quarantine off a failure fails the call: the one at the lowest batch
  /// index, whose index goes to `failed_index` when non-null (a sweep:
  /// lowest shard first, index 0).
  template <typename Step>
  Result<BatchReport> RunShards(
      std::span<const retail::Receipt> receipts,
      const std::vector<std::vector<size_t>>* by_shard, Step&& step,
      size_t* failed_index = nullptr);

  /// Per-shard cumulative stats behind HealthReport. Written only in the
  /// single-threaded merge phase of an operation (like shard_health_).
  struct ShardStats {
    uint64_t receipts = 0;
    uint64_t rejected = 0;
    uint64_t alerts = 0;
    uint64_t retries = 0;
    size_t last_batch_receipts = 0;
  };

  /// Publishes per-shard labeled gauges (`churnlab.serve.shard_*{shard=k}`)
  /// into the global registry. Merge-phase only; gated on detailed timing
  /// so default runs do not grow the registry by O(shards).
  void PublishShardTelemetry();

  /// Interned per-shard labeled gauge handles: the labeled metric names are
  /// built (and the registry consulted) once per shard, not once per batch.
  struct ShardGauges {
    obs::Gauge* receipts = nullptr;
    obs::Gauge* rejected = nullptr;
    obs::Gauge* alerts = nullptr;
    obs::Gauge* retries = nullptr;
    obs::Gauge* last_batch_receipts = nullptr;
    obs::Gauge* poisoned = nullptr;
    obs::Gauge* customers = nullptr;
    obs::Gauge* bytes = nullptr;
  };
  /// The shard's gauge handles, interned on first use (detailed-timing
  /// paths only). Registry pointers are process-lived, so caching is safe.
  const ShardGauges& ShardGaugesFor(size_t shard) const;

  FleetOptions options_;
  CustomerStateStore store_;
  core::SymbolMapper mapper_;
  /// Lazily created on the first multi-threaded operation; unique_ptr so
  /// the fleet stays movable.
  std::unique_ptr<ThreadPool> pool_;
  /// Per-shard health, OK until the shard is poisoned. Written only in the
  /// single-threaded merge phase of an operation, so no lock is needed.
  std::vector<Status> shard_health_;
  std::vector<ShardStats> shard_stats_;
  /// Per-shard task-latency histograms, interned in the global registry
  /// under labeled names. Created lazily by the shard's own task (at most
  /// one task per shard is in flight, so slots never race).
  std::vector<obs::Histogram*> shard_latency_;
  /// Interned gauge handles behind ShardGaugesFor. mutable: filled lazily
  /// from const telemetry paths (MemoryUsage), merge-phase only.
  mutable std::vector<ShardGauges> shard_gauges_;
};

}  // namespace serve
}  // namespace churnlab

#endif  // CHURNLAB_SERVE_FLEET_H_
