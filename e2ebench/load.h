#ifndef CHURNLAB_E2EBENCH_LOAD_H_
#define CHURNLAB_E2EBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "retail/types.h"

namespace churnlab {
namespace e2e {

/// What one session's clients send.
struct LoadPlan {
  const Population* population = nullptr;
  /// Per-client pre-rendered requests (day slots are rewritten per lap).
  std::vector<std::vector<IngestRequest>>* clients = nullptr;
  /// Lap of each client's first request (after a recovered journal's).
  int64_t first_lap = 0;
  double seconds = 10.0;
  /// Open-loop GET /v1/customers/{id} rate; 0 disables the reader.
  double read_rate = 0.0;
  /// POST /v1/snapshot after every this many acked receipts; 0 disables.
  uint64_t snapshot_every = 0;
  /// Customers the server holds before the load starts.
  std::vector<retail::CustomerId> preacked;
  uint64_t seed = 0;
};

struct IngestRecord {
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  uint32_t client = 0;
  uint32_t request = 0;
  int64_t lap = 0;
  uint64_t first_sequence = 0;
  uint32_t receipts = 0;
  uint32_t ingested = 0;
  bool ok = false;
  /// Sent after the timer started (the warm-up is not timed).
  bool timed = false;
};

struct ReadRecord {
  int64_t scheduled_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  retail::CustomerId customer = retail::kInvalidCustomer;
  bool ok = false;
};

struct SnapshotRecord {
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<IngestRecord> ingests;
  std::vector<ReadRecord> reads;
  std::vector<SnapshotRecord> snapshots;
  /// Timer start, and the last timed ingest acknowledgement.
  int64_t t0_ns = 0;
  int64_t end_ns = 0;
  /// CPU seconds of the whole process and of the client threads over the
  /// timed window; the difference is the server's.
  double process_cpu_s = 0.0;
  double client_cpu_s = 0.0;
  /// One line per failed request or transport error.
  std::vector<std::string> errors;
};

/// The acknowledged ingest requests of `load`, in sequence order.
std::vector<IngestRecord> AckedBySequence(const LoadResult& load);

/// Runs the clients against the server on 127.0.0.1:`port`: each ingest
/// client sends its first 10% of requests untimed, then all clients,
/// the reader and the snapshot trigger run for `plan.seconds`.
LoadResult RunLoad(uint16_t port, const LoadPlan& plan);

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_LOAD_H_
