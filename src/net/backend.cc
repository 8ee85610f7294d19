#include "net/backend.h"

#include "common/macros.h"

namespace churnlab {
namespace net {

Result<serve::BatchReport> FleetBackend::Ingest(
    uint64_t first_sequence, std::span<const retail::Receipt> receipts) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Write-ahead: the batch must be journaled before the fleet applies it.
  // Under FsyncPolicy::kAlways the append is durable when it returns; under
  // kBatch the coalescer's WaitDurable makes it durable before any of the
  // round's responses are sent, outside this mutex.
  if (options_.journal != nullptr) {
    CHURNLAB_RETURN_NOT_OK(options_.journal->Append(first_sequence, receipts));
  }
  return fleet_->IngestBatch(receipts);
}

Status FleetBackend::WaitDurable(uint64_t end_sequence) {
  if (options_.journal == nullptr) return Status::OK();
  return options_.journal->SyncThrough(end_sequence);
}

Result<serve::CustomerQuery> FleetBackend::Customer(
    retail::CustomerId customer) {
  // Deliberately not under mutex_: QueryCustomer takes only the customer's
  // shard lock, so reads stay responsive while a large ingest runs.
  return fleet_->QueryCustomer(customer);
}

Result<serve::FleetHealth> FleetBackend::Health() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.journal != nullptr) {
    CHURNLAB_RETURN_NOT_OK(options_.journal->sync_error());
  }
  return fleet_->HealthReport();
}

Result<serve::StateMemoryStats> FleetBackend::Memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  return fleet_->MemoryUsage();
}

Result<std::string> FleetBackend::Snapshot() {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "no snapshot path configured (start the server with one to enable "
        "POST /v1/snapshot and the drain-time flush)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CHURNLAB_ASSIGN_OR_RETURN(
      const serve::SnapshotRef ref,
      fleet_->AppendSnapshotGeneration(options_.snapshot_path));
  if (options_.journal != nullptr) {
    // Under the mutex every journaled receipt is applied, so the journal's
    // next sequence IS the snapshot's watermark; segments at or below it
    // are truncated.
    CHURNLAB_RETURN_NOT_OK(options_.journal->Checkpoint(
        options_.journal->next_sequence(), ref));
  }
  return options_.snapshot_path;
}

}  // namespace net
}  // namespace churnlab
