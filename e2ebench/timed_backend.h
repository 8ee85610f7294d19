#ifndef CHURNLAB_E2EBENCH_TIMED_BACKEND_H_
#define CHURNLAB_E2EBENCH_TIMED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/backend.h"
#include "retail/types.h"
#include "serve/fleet.h"
#include "serve/journal.h"

namespace churnlab {
namespace e2e {

/// One timed call. Ingest-side spans carry the receipt-sequence range
/// [first_sequence, end_sequence) they cover; read-side spans carry the
/// customer id. `parent` is 0 for a root span.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t first_sequence = 0;
  uint64_t end_sequence = 0;
  retail::CustomerId customer = retail::kInvalidCustomer;
};

/// In-memory span sink shared by the backend's calling threads.
class Tracer {
 public:
  uint64_t NewId();
  void Record(const Span& span);
  /// Hands over every span recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One backend Ingest call and the fleet report it produced, kept for the
/// response-encoding replay.
struct Round {
  uint64_t first_sequence = 0;
  uint64_t end_sequence = 0;
  serve::BatchReport report;
};

/// A ScoringBackend that makes the same calls in the same order as
/// net::FleetBackend — Append, IngestBatch, Sync per round; snapshot then
/// checkpoint; QueryCustomer without the operation mutex — and times each
/// call into a Tracer. The traced run serves through it so each layer
/// below the HTTP server gets its own span without touching the server.
class TimedBackend final : public net::ScoringBackend {
 public:
  /// `fleet`, `journal` and `tracer` are borrowed and must outlive the
  /// backend.
  TimedBackend(serve::ScoringFleet* fleet, serve::IngestJournal* journal,
               std::string snapshot_path, Tracer* tracer)
      : fleet_(fleet),
        journal_(journal),
        snapshot_path_(std::move(snapshot_path)),
        tracer_(tracer) {}

  Result<serve::BatchReport> Ingest(
      uint64_t first_sequence,
      std::span<const retail::Receipt> receipts) override;
  Result<serve::CustomerQuery> Customer(retail::CustomerId customer) override;
  Result<serve::FleetHealth> Health() override;
  Result<serve::StateMemoryStats> Memory() override;
  Result<std::string> Snapshot() override;

  /// Every round so far, in call order. Call after the server stopped.
  std::vector<Round> TakeRounds();

 private:
  serve::ScoringFleet* fleet_;
  serve::IngestJournal* journal_;
  std::string snapshot_path_;
  Tracer* tracer_;
  std::mutex mutex_;
  std::vector<Round> rounds_;
};

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_TIMED_BACKEND_H_
