#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <span>
#include <unordered_set>

#include "churnlab.h"
#include "common/macros.h"

namespace churnlab {
namespace e2e {
namespace {

/// Width of a receipt's day slot: days up to 99,999,999, i.e. over 100k
/// laps of a 28-month stream.
constexpr size_t kDaySlotWidth = 8;

void WriteDaySlot(int64_t day, char* slot) {
  size_t pos = kDaySlotWidth;
  do {
    slot[--pos] = static_cast<char>('0' + day % 10);
    day /= 10;
  } while (day > 0 && pos > 0);
  while (pos > 0) slot[--pos] = ' ';
}

template <typename T>
void AppendNumber(T value, std::string* out) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

int64_t ShiftedDay(const Population& population, const retail::Receipt& r,
                   int64_t lap) {
  return static_cast<int64_t>(r.day) + lap * population.lap_days;
}

}  // namespace

Result<Population> MakePopulation(size_t customers, uint64_t seed,
                                  const std::string& clb_path) {
  api::ScenarioConfig config;
  config.population.num_loyal = customers / 2;
  config.population.num_defecting = customers - customers / 2;
  config.seed = seed;
  CHURNLAB_ASSIGN_OR_RETURN(const api::Dataset dataset,
                            api::MakeScenario(config));
  CHURNLAB_RETURN_NOT_OK(dataset.SaveBinary(clb_path));
  Population population;
  population.clb_path = clb_path;
  const std::span<const retail::Receipt> all = dataset.store().AllReceipts();
  population.stream.assign(all.begin(), all.end());
  std::stable_sort(population.stream.begin(), population.stream.end(),
                   [](const retail::Receipt& a, const retail::Receipt& b) {
                     return a.day < b.day;
                   });
  population.customers = dataset.store().Customers();
  population.lap_days = config.num_months * retail::kDaysPerMonth;
  if (population.stream.empty() ||
      dataset.store().max_day() >= population.lap_days) {
    return Status::Internal("generated stream does not fit one lap");
  }
  return population;
}

std::vector<std::vector<IngestRequest>> PlanClients(
    const Population& population, size_t clients,
    size_t receipts_per_request) {
  std::vector<std::vector<uint32_t>> owned(clients);
  for (size_t i = 0; i < population.stream.size(); ++i) {
    owned[population.stream[i].customer % clients].push_back(
        static_cast<uint32_t>(i));
  }
  std::unordered_set<retail::CustomerId> seen;
  std::vector<std::vector<IngestRequest>> plans(clients);
  for (size_t k = 0; k < clients; ++k) {
    for (size_t begin = 0; begin < owned[k].size();
         begin += receipts_per_request) {
      const size_t end =
          std::min(owned[k].size(), begin + receipts_per_request);
      IngestRequest request;
      request.receipts.assign(owned[k].begin() + static_cast<ptrdiff_t>(begin),
                              owned[k].begin() + static_cast<ptrdiff_t>(end));
      std::string body = "{\"receipts\":[";
      for (size_t i = 0; i < request.receipts.size(); ++i) {
        const retail::Receipt& receipt =
            population.stream[request.receipts[i]];
        if (seen.insert(receipt.customer).second) {
          request.first_seen.push_back(receipt.customer);
        }
        if (i > 0) body += ',';
        body += "{\"customer\":";
        AppendNumber(receipt.customer, &body);
        body += ",\"day\":";
        request.day_slots.push_back(static_cast<uint32_t>(body.size()));
        body.append(kDaySlotWidth, ' ');
        WriteDaySlot(receipt.day, body.data() + request.day_slots.back());
        // Shortest round-trip form: the server parses back the exact
        // double the offline replay uses, or the snapshots would differ.
        body += ",\"spend\":";
        AppendNumber(receipt.spend, &body);
        body += ",\"items\":[";
        for (size_t j = 0; j < receipt.items.size(); ++j) {
          if (j > 0) body += ',';
          AppendNumber(receipt.items[j], &body);
        }
        body += "]}";
      }
      body += "]}";
      request.wire =
          "POST /v1/ingest HTTP/1.1\r\nHost: e2e\r\n"
          "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n";
      request.body_offset = request.wire.size();
      for (uint32_t& slot : request.day_slots) {
        slot += static_cast<uint32_t>(request.body_offset);
      }
      request.wire += body;
      plans[k].push_back(std::move(request));
    }
  }
  return plans;
}

void SetLap(const Population& population, int64_t lap,
            IngestRequest* request) {
  if (request->lap == lap) return;
  for (size_t i = 0; i < request->receipts.size(); ++i) {
    WriteDaySlot(ShiftedDay(population,
                            population.stream[request->receipts[i]], lap),
                 request->wire.data() + request->day_slots[i]);
  }
  request->lap = lap;
}

void AppendReceipts(const Population& population,
                    const IngestRequest& request, int64_t lap,
                    std::vector<retail::Receipt>* out) {
  for (const uint32_t index : request.receipts) {
    out->push_back(population.stream[index]);
    out->back().day =
        static_cast<retail::Day>(ShiftedDay(population, out->back(), lap));
  }
}

void AppendLap(const Population& population, int64_t lap,
               std::vector<retail::Receipt>* out) {
  for (const retail::Receipt& receipt : population.stream) {
    out->push_back(receipt);
    out->back().day =
        static_cast<retail::Day>(ShiftedDay(population, receipt, lap));
  }
}

Result<uint64_t> WriteJournal(const Population& population, int64_t laps,
                              size_t frame_receipts,
                              const std::string& directory) {
  api::JournalOptions options;
  options.directory = directory;
  options.fsync = api::FsyncPolicy::kNone;
  CHURNLAB_ASSIGN_OR_RETURN(api::IngestJournal journal,
                            api::IngestJournal::Open(options));
  uint64_t sequence = 0;
  std::vector<retail::Receipt> lap_receipts;
  for (int64_t lap = 0; lap < laps; ++lap) {
    lap_receipts.clear();
    AppendLap(population, lap, &lap_receipts);
    const std::span<const retail::Receipt> all(lap_receipts);
    for (size_t begin = 0; begin < all.size(); begin += frame_receipts) {
      const std::span<const retail::Receipt> frame =
          all.subspan(begin, std::min(frame_receipts, all.size() - begin));
      CHURNLAB_RETURN_NOT_OK(journal.Append(sequence, frame));
      sequence += frame.size();
    }
  }
  return sequence;
}

}  // namespace e2e
}  // namespace churnlab
