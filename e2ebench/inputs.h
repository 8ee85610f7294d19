#ifndef CHURNLAB_E2EBENCH_INPUTS_H_
#define CHURNLAB_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "retail/types.h"

namespace churnlab {
namespace e2e {

/// A generated customer population and its receipts as one day-ordered
/// stream: the order the journal is written in and the order an offline
/// replay reproduces. The stream repeats in *laps*: lap k is lap 0 with
/// every day shifted by k * lap_days, which keeps each customer's history
/// chronological however many laps a run sends, with a fixed population.
struct Population {
  /// The `.clb` file the server loads (its taxonomy is what the fleet
  /// scores against).
  std::string clb_path;
  /// Lap 0, stably sorted by day.
  std::vector<retail::Receipt> stream;
  /// Distinct customer ids, ascending.
  std::vector<retail::CustomerId> customers;
  retail::Day lap_days = 0;
};

/// Generates `customers` customers (half loyal, half defecting) of the
/// paper scenario from `seed` with api::MakeScenario and writes them to
/// `clb_path`.
Result<Population> MakePopulation(size_t customers, uint64_t seed,
                                  const std::string& clb_path);

/// One pre-rendered POST /v1/ingest request: a fixed slice of one client's
/// day-ordered receipts. Each receipt's day sits in a fixed-width,
/// space-padded slot (valid JSON), so a later lap rewrites the digits in
/// place instead of rendering the body again.
struct IngestRequest {
  std::string wire;
  size_t body_offset = 0;
  /// Indices into Population::stream, in send order.
  std::vector<uint32_t> receipts;
  /// Offset in `wire` of each receipt's day slot.
  std::vector<uint32_t> day_slots;
  /// Customers whose first lap-0 receipt is in this request.
  std::vector<retail::CustomerId> first_seen;
  /// The lap the day slots currently hold.
  int64_t lap = 0;
};

/// Splits the stream among `clients` clients — client k owns the customers
/// with id % clients == k and sends them in day order — and renders every
/// request of one lap, `receipts_per_request` receipts each.
std::vector<std::vector<IngestRequest>> PlanClients(
    const Population& population, size_t clients,
    size_t receipts_per_request);

/// Rewrites `request`'s day slots for `lap`.
void SetLap(const Population& population, int64_t lap,
            IngestRequest* request);

/// Appends the receipts `request` carries at `lap` to `out`.
void AppendReceipts(const Population& population,
                    const IngestRequest& request, int64_t lap,
                    std::vector<retail::Receipt>* out);

/// Appends lap `lap` of the stream to `out`.
void AppendLap(const Population& population, int64_t lap,
               std::vector<retail::Receipt>* out);

/// Writes laps [0, laps) of the stream to a fresh journal in `directory`,
/// `frame_receipts` receipts per IngestJournal::Append, with no
/// checkpoint: the state a server crashed in before its first snapshot.
/// Returns the journaled receipt count.
Result<uint64_t> WriteJournal(const Population& population, int64_t laps,
                              size_t frame_receipts,
                              const std::string& directory);

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_INPUTS_H_
