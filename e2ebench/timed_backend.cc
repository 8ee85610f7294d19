#include "timed_backend.h"

#include <utility>

#include "common/macros.h"
#include "stats.h"

namespace churnlab {
namespace e2e {

uint64_t Tracer::NewId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

namespace {

/// Times one call as a child of `parent`.
template <typename Call>
auto TimeChild(Tracer* tracer, const char* name, const Span& parent,
               Call&& call) {
  Span span;
  span.name = name;
  span.id = tracer->NewId();
  span.parent = parent.id;
  span.first_sequence = parent.first_sequence;
  span.end_sequence = parent.end_sequence;
  span.start_ns = NowNs();
  auto result = call();
  span.end_ns = NowNs();
  tracer->Record(span);
  return result;
}

}  // namespace

Result<serve::BatchReport> TimedBackend::Ingest(
    uint64_t first_sequence, std::span<const retail::Receipt> receipts) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span round;
  round.name = "serve.backend.round";
  round.id = tracer_->NewId();
  round.first_sequence = first_sequence;
  round.end_sequence = first_sequence + receipts.size();
  round.start_ns = NowNs();
  CHURNLAB_RETURN_NOT_OK(TimeChild(tracer_, "serve.journal.append", round, [&] {
    return journal_->Append(first_sequence, receipts);
  }));
  Result<serve::BatchReport> report = TimeChild(
      tracer_, "serve.fleet.apply", round,
      [&] { return fleet_->IngestBatch(receipts); });
  if (report.ok()) {
    CHURNLAB_RETURN_NOT_OK(TimeChild(tracer_, "serve.journal.sync", round,
                                     [&] { return journal_->Sync(); }));
  }
  round.end_ns = NowNs();
  tracer_->Record(round);
  if (report.ok()) {
    rounds_.push_back(Round{round.first_sequence, round.end_sequence, *report});
  }
  return report;
}

Result<serve::CustomerQuery> TimedBackend::Customer(
    retail::CustomerId customer) {
  // Like FleetBackend: not under mutex_, the fleet locks only the
  // customer's shard.
  Span span;
  span.name = "serve.fleet.query";
  span.id = tracer_->NewId();
  span.customer = customer;
  span.start_ns = NowNs();
  Result<serve::CustomerQuery> query = fleet_->QueryCustomer(customer);
  span.end_ns = NowNs();
  tracer_->Record(span);
  return query;
}

Result<serve::FleetHealth> TimedBackend::Health() {
  std::lock_guard<std::mutex> lock(mutex_);
  return fleet_->HealthReport();
}

Result<serve::StateMemoryStats> TimedBackend::Memory() {
  std::lock_guard<std::mutex> lock(mutex_);
  return fleet_->MemoryUsage();
}

Result<std::string> TimedBackend::Snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  Span snapshot;
  snapshot.name = "serve.backend.snapshot";
  snapshot.id = tracer_->NewId();
  snapshot.first_sequence = snapshot.end_sequence = journal_->next_sequence();
  snapshot.start_ns = NowNs();
  CHURNLAB_ASSIGN_OR_RETURN(
      const serve::SnapshotRef ref,
      TimeChild(tracer_, "serve.snapshot.write", snapshot, [&] {
        return fleet_->AppendSnapshotGeneration(snapshot_path_);
      }));
  CHURNLAB_RETURN_NOT_OK(
      TimeChild(tracer_, "serve.journal.checkpoint", snapshot, [&] {
        return journal_->Checkpoint(journal_->next_sequence(), ref);
      }));
  snapshot.end_ns = NowNs();
  tracer_->Record(snapshot);
  return snapshot_path_;
}

std::vector<Round> TimedBackend::TakeRounds() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(rounds_, {});
}

}  // namespace e2e
}  // namespace churnlab
