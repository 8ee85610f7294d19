#ifndef CHURNLAB_NET_COALESCER_H_
#define CHURNLAB_NET_COALESCER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "net/backend.h"
#include "retail/types.h"
#include "serve/fleet.h"

namespace churnlab {
namespace net {

/// \brief Merges concurrent small ingest requests into large deterministic
/// fleet batches.
///
/// Requests enqueue under one mutex, which assigns every receipt a global
/// *arrival sequence number* — the enqueue order IS the ingestion order.
/// A leader runs exactly one round: it pops queued requests (up to
/// Options::max_batch_receipts), concatenates them into one IngestBatch in
/// sequence order and runs it against the backend once. It then hands
/// leadership to the request now at the queue's front (or releases it to
/// the next arrival when the queue is empty), waits for the round to be
/// durable (ScoringBackend::WaitDurable), demultiplexes the merged
/// BatchReport into per-request slices (serve::SliceBatchReport) and
/// wakes each waiter. So backend Ingest calls stay serialized and in
/// sequence order, while one round's durability wait overlaps the next
/// round's Ingest. No request completes before its round is durable.
///
/// Determinism: per-customer monitor state depends only on that customer's
/// observation order, and batch boundaries are invisible to it — so a
/// fleet fed through the coalescer ends byte-identical to an offline
/// replay of the same receipts in arrival-sequence order, regardless of
/// how requests interleaved or how rounds were cut. Each response carries
/// its first receipt's sequence number so an external observer can
/// reconstruct the arrival order.
///
/// Backpressure: receipts buffered but not yet ingested are bounded by
/// Options::max_queue_receipts; beyond it Ingest fails fast with
/// ResourceExhausted (HTTP 429) instead of queueing unboundedly.
class IngestCoalescer {
 public:
  struct Options {
    /// Largest merged batch handed to the backend in one round.
    size_t max_batch_receipts = 8192;
    /// Bound on receipts waiting to be ingested (excess -> 429).
    size_t max_queue_receipts = 65536;
    /// Sequence number assigned to the first receipt to arrive. A server
    /// recovering from a journal seeds this with the recovered next
    /// sequence so the global arrival numbering continues unbroken.
    uint64_t first_sequence = 0;
  };

  /// One request's demultiplexed result.
  struct Outcome {
    serve::BatchReport report;
    /// Arrival sequence number of the request's first receipt (sequence
    /// numbers start at 0 and increment once per receipt).
    uint64_t first_sequence = 0;
  };

  IngestCoalescer(Options options, ScoringBackend* backend);

  /// Ingests `receipts` as part of a coalesced batch; blocks until the
  /// batch containing them completed. An empty request is a cheap no-op
  /// (sequence of the next receipt to arrive, empty report). Thread-safe.
  Result<Outcome> Ingest(std::vector<retail::Receipt> receipts);

  /// Receipts enqueued but not yet handed to the backend.
  size_t pending_receipts() const;

 private:
  struct PendingRequest {
    std::vector<retail::Receipt> receipts;
    uint64_t first_sequence = 0;
    /// Set when this request, at the queue's front, is to lead a round.
    bool lead = false;
    bool done = false;
    /// Signals `lead` or `done` to this request's thread alone, so a round
    /// wakes only the threads it concerns.
    std::condition_variable cv;
    Status status;
    serve::BatchReport slice;
  };

  /// Pops and runs one round, hands leadership on, waits for the round's
  /// durability and completes its requests. Called by the leader with
  /// `lock` held; unlocks around the backend calls.
  void RunRound(std::unique_lock<std::mutex>* lock);

  Options options_;
  ScoringBackend* backend_;
  mutable std::mutex mutex_;
  std::deque<PendingRequest*> queue_;
  size_t queued_receipts_ = 0;
  uint64_t next_sequence_ = 0;
  /// A leader is running a round's Ingest or has been named to (the queue
  /// front's `lead` flag). False only when the queue is empty.
  bool leader_active_ = false;
};

}  // namespace net
}  // namespace churnlab

#endif  // CHURNLAB_NET_COALESCER_H_
