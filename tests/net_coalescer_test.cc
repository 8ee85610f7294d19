// Ingest coalescing: concurrent requests must merge into backend batches
// whose concatenation is exactly the arrival-sequence order, with each
// request getting back precisely its own slice of the merged report. This
// is the property the server's byte-identical-replay guarantee rests on.

#include "net/coalescer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/backend.h"

namespace churnlab {
namespace net {
namespace {

// Records every batch the coalescer hands to the backend. The coalescer
// contractually serializes Ingest calls (one leader at a time), so no
// internal locking is needed; an atomic flag asserts that contract
// instead. WaitDurable is the default no-op.
class RecordingBackend final : public ScoringBackend {
 public:
  Result<serve::BatchReport> Ingest(
      uint64_t first_sequence,
      std::span<const retail::Receipt> receipts) override {
    EXPECT_FALSE(ingest_active_.exchange(true))
        << "backend Ingest reentered concurrently";
    batch_sequences_.push_back(first_sequence);
    batches_.emplace_back(receipts.begin(), receipts.end());
    serve::BatchReport report;
    report.receipts_ingested = receipts.size();
    // Tag every receipt position with an alert so slice demultiplexing is
    // observable: each request must get back alerts for exactly its own
    // receipts, rebased to its own indices.
    for (size_t i = 0; i < receipts.size(); ++i) {
      serve::FleetAlert alert;
      alert.customer = receipts[i].customer;
      alert.batch_index = i;
      report.alerts.push_back(alert);
    }
    ingest_active_.store(false);
    return report;
  }

  Result<serve::CustomerQuery> Customer(retail::CustomerId customer) override {
    serve::CustomerQuery query;
    query.customer = customer;
    return query;
  }
  Result<serve::FleetHealth> Health() override {
    return serve::FleetHealth{};
  }
  Result<serve::StateMemoryStats> Memory() override {
    return serve::StateMemoryStats{};
  }
  Result<std::string> Snapshot() override { return std::string("unused"); }

  const std::vector<std::vector<retail::Receipt>>& batches() const {
    return batches_;
  }
  /// First-sequence tag of each backend batch, in call order.
  const std::vector<uint64_t>& batch_sequences() const {
    return batch_sequences_;
  }
  std::vector<retail::Receipt> Concatenated() const {
    std::vector<retail::Receipt> all;
    for (const auto& batch : batches_) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  }

 private:
  std::vector<std::vector<retail::Receipt>> batches_;
  std::vector<uint64_t> batch_sequences_;
  std::atomic<bool> ingest_active_{false};
};

retail::Receipt MakeReceipt(retail::CustomerId customer, retail::Day day) {
  retail::Receipt receipt;
  receipt.customer = customer;
  receipt.day = day;
  return receipt;
}

TEST(IngestCoalescer, SingleRequestPassesThrough) {
  RecordingBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  const Result<IngestCoalescer::Outcome> outcome =
      coalescer.Ingest({MakeReceipt(1, 10), MakeReceipt(2, 10)});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->first_sequence, 0u);
  EXPECT_EQ(outcome->report.receipts_ingested, 2u);
  ASSERT_EQ(backend.batches().size(), 1u);
  EXPECT_EQ(backend.batches()[0].size(), 2u);
  EXPECT_EQ(coalescer.pending_receipts(), 0u);
}

TEST(IngestCoalescer, EmptyRequestIsCheapNoOp) {
  RecordingBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  const Result<IngestCoalescer::Outcome> outcome = coalescer.Ingest({});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->report.receipts_ingested, 0u);
  EXPECT_TRUE(backend.batches().empty());
}

TEST(IngestCoalescer, SequencesAreContiguousPerRequest) {
  RecordingBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  const Result<IngestCoalescer::Outcome> first =
      coalescer.Ingest({MakeReceipt(1, 1), MakeReceipt(1, 2)});
  const Result<IngestCoalescer::Outcome> second =
      coalescer.Ingest({MakeReceipt(2, 1)});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->first_sequence, 0u);
  EXPECT_EQ(second->first_sequence, 2u);
}

TEST(IngestCoalescer, ConcurrentRequestsMergeWithoutLossOrReorder) {
  RecordingBackend backend;
  IngestCoalescer::Options options;
  options.max_batch_receipts = 64;  // force multiple rounds
  IngestCoalescer coalescer(options, &backend);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 50;
  constexpr int kReceiptsPerRequest = 5;

  struct RequestRecord {
    uint64_t first_sequence = 0;
    std::vector<retail::Receipt> receipts;
    size_t reported_ingested = 0;
    std::vector<size_t> alert_indices;
  };
  std::vector<std::vector<RequestRecord>> records(kThreads);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        std::vector<retail::Receipt> receipts;
        receipts.reserve(kReceiptsPerRequest);
        for (int i = 0; i < kReceiptsPerRequest; ++i) {
          // Distinct customer per (thread, request, position) so receipts
          // are globally identifiable.
          const auto customer = static_cast<retail::CustomerId>(
              t * 1000000 + r * 100 + i);
          receipts.push_back(MakeReceipt(customer, 1));
        }
        Result<IngestCoalescer::Outcome> outcome =
            coalescer.Ingest(receipts);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        RequestRecord record;
        record.first_sequence = outcome->first_sequence;
        record.receipts = std::move(receipts);
        record.reported_ingested = outcome->report.receipts_ingested;
        for (const serve::FleetAlert& alert : outcome->report.alerts) {
          record.alert_indices.push_back(alert.batch_index);
        }
        records[t].push_back(std::move(record));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Reconstruct the arrival order from the per-request sequence numbers.
  std::map<uint64_t, const RequestRecord*> by_sequence;
  size_t total_receipts = 0;
  for (const auto& thread_records : records) {
    for (const RequestRecord& record : thread_records) {
      EXPECT_EQ(record.reported_ingested, record.receipts.size());
      // The demultiplexed slice covers exactly this request's receipts,
      // rebased to local indices 0..n-1.
      ASSERT_EQ(record.alert_indices.size(), record.receipts.size());
      for (size_t i = 0; i < record.alert_indices.size(); ++i) {
        EXPECT_EQ(record.alert_indices[i], i);
      }
      EXPECT_TRUE(by_sequence.emplace(record.first_sequence, &record).second)
          << "duplicate first_sequence " << record.first_sequence;
      total_receipts += record.receipts.size();
    }
  }

  // Sequences tile [0, total) contiguously: request k starts where k-1
  // ended.
  uint64_t expected_sequence = 0;
  std::vector<retail::Receipt> arrival_order;
  arrival_order.reserve(total_receipts);
  for (const auto& [sequence, record] : by_sequence) {
    EXPECT_EQ(sequence, expected_sequence);
    expected_sequence += record->receipts.size();
    arrival_order.insert(arrival_order.end(), record->receipts.begin(),
                         record->receipts.end());
  }
  EXPECT_EQ(expected_sequence, total_receipts);

  // The backend saw exactly the arrival order, merely cut into rounds.
  const std::vector<retail::Receipt> ingested = backend.Concatenated();
  ASSERT_EQ(ingested.size(), total_receipts);
  for (size_t i = 0; i < total_receipts; ++i) {
    EXPECT_EQ(ingested[i].customer, arrival_order[i].customer) << "at " << i;
  }
  for (const auto& batch : backend.batches()) {
    EXPECT_LE(batch.size(), options.max_batch_receipts);
  }
  EXPECT_EQ(coalescer.pending_receipts(), 0u);
}

TEST(IngestCoalescer, OversizedQueueShedsWithResourceExhausted) {
  RecordingBackend backend;
  IngestCoalescer::Options options;
  options.max_queue_receipts = 4;
  IngestCoalescer coalescer(options, &backend);
  // A single request larger than the whole queue bound is rejected before
  // any sequence is assigned or any receipt buffered.
  std::vector<retail::Receipt> oversized;
  for (int i = 0; i < 5; ++i) oversized.push_back(MakeReceipt(1, 1));
  const Result<IngestCoalescer::Outcome> outcome =
      coalescer.Ingest(std::move(oversized));
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted)
      << outcome.status().ToString();
  EXPECT_EQ(coalescer.pending_receipts(), 0u);
  EXPECT_TRUE(backend.batches().empty());
  // The next in-bounds request still starts at sequence 0: shed requests
  // never consume sequence numbers.
  const Result<IngestCoalescer::Outcome> ok_outcome =
      coalescer.Ingest({MakeReceipt(1, 1)});
  ASSERT_TRUE(ok_outcome.ok());
  EXPECT_EQ(ok_outcome->first_sequence, 0u);
}

TEST(IngestCoalescer, BackendBatchesCarryContiguousFirstSequences) {
  RecordingBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  ASSERT_TRUE(coalescer.Ingest({MakeReceipt(1, 1), MakeReceipt(2, 1)}).ok());
  ASSERT_TRUE(coalescer.Ingest({MakeReceipt(3, 2)}).ok());
  ASSERT_TRUE(coalescer.Ingest({MakeReceipt(4, 3), MakeReceipt(5, 3),
                                MakeReceipt(6, 3)}).ok());
  // Each backend batch's tag is the sequence of its first receipt; across
  // batches the tags cover the receipt stream with no gap or overlap —
  // the property the write-ahead journal's contiguity check rides on.
  uint64_t expected = 0;
  ASSERT_EQ(backend.batch_sequences().size(), backend.batches().size());
  for (size_t i = 0; i < backend.batches().size(); ++i) {
    EXPECT_EQ(backend.batch_sequences()[i], expected);
    expected += backend.batches()[i].size();
  }
  EXPECT_EQ(expected, 6u);
}

TEST(IngestCoalescer, FirstSequenceOptionSeedsTheNumbering) {
  // A recovered server continues the crashed server's sequence space: the
  // coalescer starts numbering at the journal's recovered next sequence.
  RecordingBackend backend;
  IngestCoalescer::Options options;
  options.first_sequence = 1000;
  IngestCoalescer coalescer(options, &backend);
  const Result<IngestCoalescer::Outcome> first =
      coalescer.Ingest({MakeReceipt(1, 1), MakeReceipt(2, 1)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->first_sequence, 1000u);
  const Result<IngestCoalescer::Outcome> second =
      coalescer.Ingest({MakeReceipt(3, 2)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->first_sequence, 1002u);
  ASSERT_FALSE(backend.batch_sequences().empty());
  EXPECT_EQ(backend.batch_sequences().front(), 1000u);
}

// ---------------------------------------------------------------------------
// Pipelining: a round waits for its durability outside the serialized
// Ingest, so the next round can run while it waits.

// A backend whose Ingest can be held open and whose WaitDurable blocks on
// a latch the test releases, recording every call.
class LatchedBackend final : public ScoringBackend {
 public:
  Result<serve::BatchReport> Ingest(
      uint64_t first_sequence,
      std::span<const retail::Receipt> receipts) override {
    std::unique_lock<std::mutex> lock(mutex_);
    EXPECT_FALSE(in_ingest_) << "backend Ingest reentered concurrently";
    in_ingest_ = true;
    ingests_.push_back({first_sequence, first_sequence + receipts.size()});
    cv_.notify_all();
    cv_.wait(lock, [this] { return !hold_ingest_; });
    in_ingest_ = false;
    serve::BatchReport report;
    report.receipts_ingested = receipts.size();
    return report;
  }

  Status WaitDurable(uint64_t end_sequence) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_through_ >= end_sequence; });
    --waiting_;
    max_returned_end_ = std::max(max_returned_end_, end_sequence);
    if (failing_ends_.count(end_sequence) > 0) {
      return Status::DataLoss("scripted fsync failure through " +
                              std::to_string(end_sequence));
    }
    return Status::OK();
  }

  Result<serve::CustomerQuery> Customer(retail::CustomerId) override {
    return serve::CustomerQuery{};
  }
  Result<serve::FleetHealth> Health() override {
    return serve::FleetHealth{};
  }
  Result<serve::StateMemoryStats> Memory() override {
    return serve::StateMemoryStats{};
  }
  Result<std::string> Snapshot() override { return std::string("unused"); }

  void HoldIngest(bool hold) {
    std::lock_guard<std::mutex> lock(mutex_);
    hold_ingest_ = hold;
    cv_.notify_all();
  }
  void ReleaseThrough(uint64_t end_sequence) {
    std::lock_guard<std::mutex> lock(mutex_);
    released_through_ = std::max(released_through_, end_sequence);
    cv_.notify_all();
  }
  void FailRoundEndingAt(uint64_t end_sequence) {
    std::lock_guard<std::mutex> lock(mutex_);
    failing_ends_.insert(end_sequence);
  }

  /// Waits (bounded) until `ingests` Ingest calls started and `waiting`
  /// rounds block in WaitDurable.
  bool AwaitState(size_t ingests, int waiting) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      return ingests_.size() >= ingests && waiting_ >= waiting;
    });
  }

  std::vector<std::pair<uint64_t, uint64_t>> ingests() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ingests_;
  }
  uint64_t max_returned_end() {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_returned_end_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool in_ingest_ = false;
  bool hold_ingest_ = false;
  int waiting_ = 0;
  uint64_t released_through_ = 0;
  uint64_t max_returned_end_ = 0;
  std::set<uint64_t> failing_ends_;
  /// [first, end) sequence range of every Ingest call, in call order.
  std::vector<std::pair<uint64_t, uint64_t>> ingests_;
};

TEST(IngestCoalescerPipelining, NextRoundIngestsWhileARoundWaitsDurable) {
  LatchedBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  std::atomic<bool> first_done{false};
  std::thread first([&] {
    EXPECT_TRUE(coalescer.Ingest({MakeReceipt(1, 1), MakeReceipt(2, 1)}).ok());
    first_done.store(true);
  });
  ASSERT_TRUE(backend.AwaitState(/*ingests=*/1, /*waiting=*/1));

  // Round 1 is parked in WaitDurable; round 2 must reach the backend
  // anyway, and both then wait for durability side by side.
  std::atomic<bool> second_done{false};
  std::thread second([&] {
    EXPECT_TRUE(coalescer.Ingest({MakeReceipt(3, 1)}).ok());
    second_done.store(true);
  });
  const bool overlapped = backend.AwaitState(/*ingests=*/2, /*waiting=*/2);
  EXPECT_FALSE(first_done.load());
  EXPECT_FALSE(second_done.load());
  backend.ReleaseThrough(3);
  first.join();
  second.join();
  EXPECT_TRUE(overlapped)
      << "round 2 did not reach Ingest while round 1 waited for durability";
  const std::vector<std::pair<uint64_t, uint64_t>> ingests = backend.ingests();
  ASSERT_EQ(ingests.size(), 2u);
  EXPECT_EQ(ingests[0], std::make_pair(uint64_t{0}, uint64_t{2}));
  EXPECT_EQ(ingests[1], std::make_pair(uint64_t{2}, uint64_t{3}));
  EXPECT_TRUE(first_done.load());
  EXPECT_TRUE(second_done.load());
}

TEST(IngestCoalescerPipelining, NoRequestCompletesBeforeItsRoundIsDurable) {
  LatchedBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  // Round 1 = A, held inside Ingest while B and C queue behind it, so
  // round 2 = B (its leader) + C (a follower).
  backend.HoldIngest(true);
  std::thread thread_a([&] {
    EXPECT_TRUE(coalescer.Ingest({MakeReceipt(1, 1)}).ok());
  });
  ASSERT_TRUE(backend.AwaitState(/*ingests=*/1, /*waiting=*/0));
  std::atomic<bool> b_done{false};
  std::atomic<bool> c_done{false};
  std::thread thread_b([&] {
    EXPECT_TRUE(coalescer.Ingest({MakeReceipt(2, 1), MakeReceipt(2, 2)}).ok());
    b_done.store(true);
  });
  while (coalescer.pending_receipts() < 2) std::this_thread::yield();
  std::thread thread_c([&] {
    EXPECT_TRUE(coalescer.Ingest({MakeReceipt(3, 1)}).ok());
    c_done.store(true);
  });
  while (coalescer.pending_receipts() < 3) std::this_thread::yield();
  backend.ReleaseThrough(1);  // round 1 is durable at once
  backend.HoldIngest(false);
  thread_a.join();
  const bool round_two_waits =
      backend.AwaitState(/*ingests=*/2, /*waiting=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const bool early = b_done.load() || c_done.load();
  // Durability through sequence 3 does not cover round 2's [1, 4).
  backend.ReleaseThrough(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const bool partial = b_done.load() || c_done.load();
  backend.ReleaseThrough(4);
  thread_b.join();
  thread_c.join();
  EXPECT_TRUE(round_two_waits);
  EXPECT_FALSE(early) << "acknowledged before WaitDurable returned";
  EXPECT_FALSE(partial) << "acknowledged before its whole range was durable";
  EXPECT_TRUE(b_done.load());
  EXPECT_TRUE(c_done.load());
  EXPECT_EQ(backend.max_returned_end(), 4u);
}

TEST(IngestCoalescerPipelining, ConcurrentIngestCallsAreContiguousAndInOrder) {
  LatchedBackend backend;
  IngestCoalescer::Options options;
  options.max_batch_receipts = 16;  // many rounds
  IngestCoalescer coalescer(options, &backend);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 40;
  std::atomic<bool> stop{false};
  // Durability trails ingestion: release whatever was ingested a moment
  // ago, so rounds pile up in WaitDurable behind later Ingest calls.
  std::thread releaser([&] {
    while (!stop.load()) {
      const auto ingests = backend.ingests();
      if (!ingests.empty()) backend.ReleaseThrough(ingests.back().second);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        std::vector<retail::Receipt> receipts(
            static_cast<size_t>(1 + (t + r) % 5),
            MakeReceipt(static_cast<retail::CustomerId>(t), r));
        const size_t count = receipts.size();
        const Result<IngestCoalescer::Outcome> outcome =
            coalescer.Ingest(std::move(receipts));
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_EQ(outcome->report.receipts_ingested, count);
        // Completed only after a WaitDurable covering it returned.
        EXPECT_GE(backend.max_returned_end(),
                  outcome->first_sequence + count);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  releaser.join();

  const auto ingests = backend.ingests();
  ASSERT_FALSE(ingests.empty());
  uint64_t expected = 0;
  for (const auto& [first, end] : ingests) {
    EXPECT_EQ(first, expected) << "Ingest calls out of sequence order";
    EXPECT_LE(end - first, options.max_batch_receipts);
    expected = end;
  }
  uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRequestsPerThread; ++r) total += 1 + (t + r) % 5;
  }
  EXPECT_EQ(expected, total);
}

TEST(IngestCoalescerPipelining, WaitDurableErrorFailsExactlyItsRound) {
  LatchedBackend backend;
  IngestCoalescer coalescer(IngestCoalescer::Options{}, &backend);
  backend.ReleaseThrough(1000);
  // Round 1 = request A, held inside Ingest while B and C queue up behind
  // it; round 2 = B + C, whose durability fails; round 3 = D.
  backend.HoldIngest(true);
  Result<IngestCoalescer::Outcome> a = Status::Internal("unset");
  std::thread thread_a([&] { a = coalescer.Ingest({MakeReceipt(1, 1)}); });
  ASSERT_TRUE(backend.AwaitState(/*ingests=*/1, /*waiting=*/0));
  Result<IngestCoalescer::Outcome> b = Status::Internal("unset");
  std::thread thread_b([&] {
    b = coalescer.Ingest({MakeReceipt(2, 1), MakeReceipt(2, 2)});
  });
  while (coalescer.pending_receipts() < 2) std::this_thread::yield();
  Result<IngestCoalescer::Outcome> c = Status::Internal("unset");
  std::thread thread_c([&] { c = coalescer.Ingest({MakeReceipt(3, 1)}); });
  while (coalescer.pending_receipts() < 3) std::this_thread::yield();
  backend.FailRoundEndingAt(4);  // round 2 covers [1, 4)
  backend.HoldIngest(false);
  thread_a.join();
  thread_b.join();
  thread_c.join();
  const Result<IngestCoalescer::Outcome> d =
      coalescer.Ingest({MakeReceipt(4, 1)});

  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->first_sequence, 0u);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kDataLoss);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kDataLoss);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->first_sequence, 4u);
  const auto ingests = backend.ingests();
  ASSERT_EQ(ingests.size(), 3u);
  EXPECT_EQ(ingests[1], std::make_pair(uint64_t{1}, uint64_t{4}));
}

}  // namespace
}  // namespace net
}  // namespace churnlab
