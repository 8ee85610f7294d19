#include "net/coalescer.h"

#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace churnlab {
namespace net {

namespace {

struct CoalescerMetrics {
  obs::Counter* batches;
  obs::Counter* requests;
  obs::Gauge* pending;
  obs::Histogram* batch_receipts;
};

const CoalescerMetrics& Metrics() {
  static const CoalescerMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return CoalescerMetrics{
        registry.GetCounter("churnlab.net.coalesced_batches"),
        registry.GetCounter("churnlab.net.coalesced_requests"),
        registry.GetGauge("churnlab.net.pending_receipts"),
        registry.GetHistogram("churnlab.net.coalesced_batch_receipts",
                              obs::HistogramOptions::ExponentialLatency()),
    };
  }();
  return metrics;
}

}  // namespace

IngestCoalescer::IngestCoalescer(Options options, ScoringBackend* backend)
    : options_(options),
      backend_(backend),
      next_sequence_(options.first_sequence) {}

Result<IngestCoalescer::Outcome> IngestCoalescer::Ingest(
    std::vector<retail::Receipt> receipts) {
  PendingRequest request;
  std::unique_lock<std::mutex> lock(mutex_);
  if (queued_receipts_ + receipts.size() > options_.max_queue_receipts) {
    return Status::ResourceExhausted(
        "ingest queue holds " + std::to_string(queued_receipts_) +
        " receipts; bound is " + std::to_string(options_.max_queue_receipts));
  }
  request.first_sequence = next_sequence_;
  next_sequence_ += receipts.size();
  queued_receipts_ += receipts.size();
  Metrics().pending->Set(static_cast<double>(queued_receipts_));
  request.receipts = std::move(receipts);
  queue_.push_back(&request);
  if (!leader_active_) {
    // No round is running or named: the queue was empty, so this request
    // is its front and leads the next round itself.
    leader_active_ = true;
    request.lead = true;
  }
  request.cv.wait(lock, [&request] { return request.lead || request.done; });
  // A named leader is still at the queue's front, so its round includes
  // its own request and completes it.
  if (!request.done) RunRound(&lock);
  if (!request.status.ok()) return request.status;
  return Outcome{std::move(request.slice), request.first_sequence};
}

void IngestCoalescer::RunRound(std::unique_lock<std::mutex>* lock) {
  const CoalescerMetrics& metrics = Metrics();
  // Pop whole requests until the batch bound would be crossed (a single
  // request larger than the bound still goes, alone).
  std::vector<PendingRequest*> round;
  std::vector<size_t> counts;
  size_t round_receipts = 0;
  while (!queue_.empty()) {
    PendingRequest* next = queue_.front();
    if (!round.empty() && round_receipts + next->receipts.size() >
                              options_.max_batch_receipts) {
      break;
    }
    queue_.pop_front();
    round_receipts += next->receipts.size();
    counts.push_back(next->receipts.size());
    round.push_back(next);
  }
  queued_receipts_ -= round_receipts;
  metrics.pending->Set(static_cast<double>(queued_receipts_));
  lock->unlock();

  // Concatenate in arrival-sequence order (queue order); round entries
  // belong to threads blocked on their `done` flag, so touching them
  // unlocked is safe.
  std::vector<retail::Receipt> merged;
  merged.reserve(round_receipts);
  for (PendingRequest* entry : round) {
    merged.insert(merged.end(),
                  std::make_move_iterator(entry->receipts.begin()),
                  std::make_move_iterator(entry->receipts.end()));
    entry->receipts.clear();
  }
  // The round's receipts are sequence-contiguous (requests drain in
  // enqueue order), so the first entry's sequence numbers the whole
  // merged batch for the backend's write-ahead journal.
  const uint64_t first_sequence = round.front()->first_sequence;
  Result<serve::BatchReport> report =
      merged.empty() ? Result<serve::BatchReport>(serve::BatchReport{})
                     : backend_->Ingest(first_sequence, merged);
  metrics.batches->Increment();
  metrics.requests->Increment(round.size());
  metrics.batch_receipts->Record(static_cast<double>(round_receipts));

  // Hand the next round its turn before waiting for this one's fsync: its
  // Ingest follows ours, so backend calls stay in sequence order.
  lock->lock();
  if (queue_.empty()) {
    leader_active_ = false;
  } else {
    queue_.front()->lead = true;
    queue_.front()->cv.notify_one();
  }
  lock->unlock();

  Status status = report.status();
  if (status.ok() && !merged.empty()) {
    status = backend_->WaitDurable(first_sequence + round_receipts);
  }

  lock->lock();
  size_t offset = 0;
  for (size_t i = 0; i < round.size(); ++i) {
    PendingRequest* entry = round[i];
    if (status.ok()) {
      entry->slice = SliceBatchReport(*report, offset, offset + counts[i]);
    } else {
      entry->status = status;
    }
    offset += counts[i];
    entry->done = true;
    entry->cv.notify_one();
  }
}

size_t IngestCoalescer::pending_receipts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_receipts_;
}

}  // namespace net
}  // namespace churnlab
