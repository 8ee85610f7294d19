#ifndef CHURNLAB_NET_BACKEND_H_
#define CHURNLAB_NET_BACKEND_H_

#include <mutex>
#include <span>
#include <string>

#include "common/result.h"
#include "retail/types.h"
#include "serve/fleet.h"

namespace churnlab {
namespace net {

/// \brief What the HTTP front end needs from a scoring engine.
///
/// An abstract seam (rather than serve::ScoringFleet directly) so the net
/// layer never depends on the churnlab::api facade — the facade depends on
/// net, and tests can serve a scripted backend without a fleet.
///
/// Thread contract: Ingest, Health, Memory and Snapshot are mutually
/// serialized by the implementation; Customer and WaitDurable may run
/// concurrently with any of them (FleetBackend satisfies this with one
/// operation mutex, the fleet's own per-shard locking for Customer, and
/// the journal's group commit for WaitDurable).
///
/// Ingest path: the coalescer calls Ingest for one round at a time, in
/// sequence order, then — after handing the next round its turn — calls
/// WaitDurable for the round's end sequence, and acknowledges the round's
/// requests only once that returns OK. So round N+1 appends and applies
/// while round N waits for its fsync.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  /// Ingests one coalesced batch: applied in sequence order when this
  /// returns, but not necessarily durable yet (see WaitDurable).
  /// `first_sequence` is the arrival sequence number of the batch's first
  /// receipt (the coalescer's rounds are sequence-contiguous), which a
  /// journaling backend persists with the batch so crash recovery can
  /// replay in arrival order.
  virtual Result<serve::BatchReport> Ingest(
      uint64_t first_sequence, std::span<const retail::Receipt> receipts) = 0;
  /// Blocks until every ingested receipt below `end_sequence` survives a
  /// crash; an error means those receipts must not be acknowledged. The
  /// default suits backends whose Ingest is already durable on return.
  virtual Status WaitDurable(uint64_t end_sequence) {
    (void)end_sequence;
    return Status::OK();
  }
  virtual Result<serve::CustomerQuery> Customer(
      retail::CustomerId customer) = 0;
  virtual Result<serve::FleetHealth> Health() = 0;
  virtual Result<serve::StateMemoryStats> Memory() = 0;
  /// Flushes fleet state to the configured snapshot destination and
  /// returns its path.
  virtual Result<std::string> Snapshot() = 0;
};

/// ScoringBackend over a borrowed serve::ScoringFleet. Fleet operations
/// are "call between operations" (fleet.h), so every mutating entry point
/// runs under one mutex; Customer bypasses it because QueryCustomer
/// synchronizes on its shard's own lock.
class FleetBackend final : public ScoringBackend {
 public:
  struct Options {
    /// Snapshot destination: every snapshot appends one generation to
    /// this crash-tolerant "CHLFGENS" file. Empty disables POST
    /// /v1/snapshot and the drain-time flush (FailedPrecondition).
    std::string snapshot_path;
    /// Write-ahead ingest journal (borrowed; may be null). When set, every
    /// batch is appended before the fleet applies it, WaitDurable is the
    /// journal's group commit (SyncThrough), and Snapshot() checkpoints
    /// the journal at the applied-sequence watermark after flushing the
    /// snapshot. The journal's own sequence tracking enforces that batches
    /// arrive contiguous. After an fsync failure Ingest and Health fail
    /// with the journal's sticky DataLoss.
    serve::IngestJournal* journal = nullptr;
  };

  FleetBackend(serve::ScoringFleet* fleet, Options options)
      : fleet_(fleet), options_(std::move(options)) {}

  Result<serve::BatchReport> Ingest(
      uint64_t first_sequence,
      std::span<const retail::Receipt> receipts) override;
  Status WaitDurable(uint64_t end_sequence) override;
  Result<serve::CustomerQuery> Customer(retail::CustomerId customer) override;
  Result<serve::FleetHealth> Health() override;
  Result<serve::StateMemoryStats> Memory() override;
  Result<std::string> Snapshot() override;

 private:
  serve::ScoringFleet* fleet_;
  Options options_;
  std::mutex mutex_;
};

}  // namespace net
}  // namespace churnlab

#endif  // CHURNLAB_NET_BACKEND_H_
