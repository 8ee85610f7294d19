#include "load.h"

#include <poll.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <mutex>
#include <random>
#include <span>
#include <thread>

#include "common/macros.h"
#include "http_client.h"
#include "stats.h"

namespace churnlab {
namespace e2e {
namespace {

double CpuSeconds(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Customers the server has acknowledged, for the reader to sample from.
/// Slots are written once, under the mutex, before `count_` publishes
/// them, so the reader indexes below count() without locking.
class AckedCustomers {
 public:
  explicit AckedCustomers(size_t capacity) : ids_(capacity) {}

  void Add(std::span<const retail::CustomerId> ids) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = count_.load(std::memory_order_relaxed);
    for (const retail::CustomerId id : ids) {
      if (count < ids_.size()) ids_[count++] = id;
    }
    count_.store(count, std::memory_order_release);
  }

  size_t count() const { return count_.load(std::memory_order_acquire); }
  retail::CustomerId at(size_t i) const { return ids_[i]; }

 private:
  std::mutex mutex_;
  std::vector<retail::CustomerId> ids_;
  std::atomic<size_t> count_{0};
};

/// Holds every thread until the ingest clients finished their warm-up,
/// then releases them all with the timed window set.
class StartGate {
 public:
  explicit StartGate(size_t clients) : waiting_for_(clients) {}

  void Arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    --waiting_for_;
    cv_.notify_all();
  }

  /// Main thread: waits for every client, then starts the window.
  void Open(double seconds) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return waiting_for_ == 0; });
    t0_ns_ = NowNs();
    end_ns_ = t0_ns_ + static_cast<int64_t>(seconds * 1e9);
    open_ = true;
    cv_.notify_all();
  }

  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }

  int64_t t0_ns() const { return t0_ns_; }
  int64_t end_ns() const { return end_ns_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t waiting_for_;
  bool open_ = false;
  int64_t t0_ns_ = 0;
  int64_t end_ns_ = 0;
};

struct Shared {
  const LoadPlan* plan = nullptr;
  uint16_t port = 0;
  StartGate gate;
  AckedCustomers acked;
  std::atomic<uint64_t> acked_receipts{0};
  std::atomic<bool> ingest_done{false};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::vector<std::string> errors;
  double client_cpu_s = 0.0;

  Shared(const LoadPlan* p, uint16_t port_number, size_t clients,
         size_t customers)
      : plan(p), port(port_number), gate(clients), acked(customers) {}

  void Fail(std::string error) {
    failed.store(true);
    std::lock_guard<std::mutex> lock(mutex);
    errors.push_back(std::move(error));
  }

  void AddClientCpu(double seconds) {
    std::lock_guard<std::mutex> lock(mutex);
    client_cpu_s += seconds;
  }
};

std::string DescribeFailure(const Status& status, int code,
                            std::string_view body) {
  if (!status.ok()) return status.ToString();
  return "HTTP " + std::to_string(code) + ": " +
         std::string(body.substr(0, 200));
}

void RunIngestClient(Shared* shared, uint32_t k,
                     std::vector<IngestRecord>* records) {
  const LoadPlan& plan = *shared->plan;
  std::vector<IngestRequest>& requests = (*plan.clients)[k];
  const size_t per_lap = requests.size();
  HttpClient client;
  Status connected = per_lap == 0
                         ? Status::Internal("client owns no customers")
                         : client.Connect(shared->port);
  if (!connected.ok()) {
    shared->Fail(connected.ToString());
    shared->gate.Arrive();
    return;
  }
  uint64_t position = 0;
  const auto send_one = [&](bool timed) {
    IngestRecord record;
    record.client = k;
    record.request = static_cast<uint32_t>(position % per_lap);
    record.lap = plan.first_lap + static_cast<int64_t>(position / per_lap);
    record.timed = timed;
    IngestRequest& request = requests[record.request];
    SetLap(*plan.population, record.lap, &request);
    record.receipts = static_cast<uint32_t>(request.receipts.size());
    int code = 0;
    std::string_view body;
    record.send_ns = NowNs();
    const Status status = client.RoundTrip(request.wire, &code, &body);
    record.done_ns = NowNs();
    if (status.ok() && code == 200) {
      const int64_t sequence = JsonUintField(body, "sequence");
      const int64_t ingested = JsonUintField(body, "receipts_ingested");
      record.ok = sequence >= 0 && ingested >= 0 &&
                  body.find("\"rejected\":[]") != std::string_view::npos;
      record.first_sequence = static_cast<uint64_t>(sequence);
      record.ingested = static_cast<uint32_t>(ingested);
    }
    if (!record.ok) shared->Fail(DescribeFailure(status, code, body));
    records->push_back(record);
    if (record.ok) {
      if (record.lap == 0) shared->acked.Add(request.first_seen);
      shared->acked_receipts.fetch_add(record.receipts);
    }
    ++position;
    return record.ok;
  };
  const size_t warmup = std::max<size_t>(1, per_lap / 10);
  bool ok = true;
  for (size_t i = 0; ok && i < warmup; ++i) ok = send_one(false);
  shared->gate.Arrive();
  shared->gate.WaitOpen();
  const double cpu_start = CpuSeconds(RUSAGE_THREAD);
  while (ok && !shared->failed.load() && NowNs() < shared->gate.end_ns()) {
    ok = send_one(true);
  }
  shared->AddClientCpu(CpuSeconds(RUSAGE_THREAD) - cpu_start);
}

/// Moves every complete response off the connection into `records`, in
/// request order.
Status DrainResponses(Shared* shared, HttpClient* client,
                      std::deque<ReadRecord>* in_flight,
                      std::vector<ReadRecord>* records) {
  for (;;) {
    bool taken = false;
    int code = 0;
    std::string_view body;
    CHURNLAB_RETURN_NOT_OK(client->TakeResponse(&taken, &code, &body));
    if (!taken) return Status::OK();
    if (in_flight->empty()) return Status::IOError("unrequested response");
    ReadRecord record = in_flight->front();
    in_flight->pop_front();
    record.done_ns = NowNs();
    record.ok = code == 200;
    if (!record.ok) shared->Fail(DescribeFailure(Status::OK(), code, body));
    records->push_back(record);
  }
}

/// Open loop: each read is sent at its scheduled time whether or not
/// earlier responses arrived (HTTP/1.1 pipelining), so a server stall
/// delays responses, not sends, and `send_ns - scheduled_ns` measures
/// only the generator's own lateness.
Status ReadLoop(Shared* shared, HttpClient* client,
                std::vector<ReadRecord>* records) {
  const LoadPlan& plan = *shared->plan;
  std::mt19937_64 rng(plan.seed);
  const double interval_ns = 1e9 / plan.read_rate;
  std::deque<ReadRecord> in_flight;
  for (uint64_t next = 0; !shared->failed.load();) {
    const int64_t scheduled =
        shared->gate.t0_ns() +
        static_cast<int64_t>(static_cast<double>(next) * interval_ns);
    const bool sending = scheduled < shared->gate.end_ns();
    if (!sending && in_flight.empty()) return Status::OK();
    const int64_t now = NowNs();
    if (sending && now >= scheduled) {
      ++next;
      const size_t known = shared->acked.count();
      if (known == 0) continue;
      ReadRecord record;
      record.scheduled_ns = scheduled;
      record.customer = shared->acked.at(rng() % known);
      const std::string wire = "GET /v1/customers/" +
                               std::to_string(record.customer) +
                               " HTTP/1.1\r\nHost: e2e\r\n\r\n";
      record.send_ns = NowNs();
      CHURNLAB_RETURN_NOT_OK(client->Send(wire));
      in_flight.push_back(record);
      continue;
    }
    const int64_t wait_ns = sending ? scheduled - now : int64_t{30'000'000'000};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd readable{client->fd(), POLLIN, 0};
    const int ready = ::ppoll(&readable, 1, &timeout, nullptr);
    if (ready == 0 && !sending) {
      return Status::IOError("reads unanswered for 30 s");
    }
    if (ready > 0) {
      CHURNLAB_RETURN_NOT_OK(client->ReadMore());
      CHURNLAB_RETURN_NOT_OK(
          DrainResponses(shared, client, &in_flight, records));
    }
  }
  return Status::OK();
}

void RunReader(Shared* shared, std::vector<ReadRecord>* records) {
  HttpClient client;
  const Status connected = client.Connect(shared->port);
  shared->gate.WaitOpen();
  if (!connected.ok()) {
    shared->Fail(connected.ToString());
    return;
  }
  const double cpu_start = CpuSeconds(RUSAGE_THREAD);
  const Status status = ReadLoop(shared, &client, records);
  if (!status.ok()) shared->Fail(status.ToString());
  shared->AddClientCpu(CpuSeconds(RUSAGE_THREAD) - cpu_start);
}

/// Checkpoints the server after every `snapshot_every` acked receipts,
/// as an operator's periodic snapshot would.
void RunSnapshotTrigger(Shared* shared, std::vector<SnapshotRecord>* records) {
  const uint64_t every = shared->plan->snapshot_every;
  HttpClient client;
  const Status connected = client.Connect(shared->port);
  shared->gate.WaitOpen();
  if (!connected.ok()) {
    shared->Fail(connected.ToString());
    return;
  }
  const double cpu_start = CpuSeconds(RUSAGE_THREAD);
  const std::string wire =
      "POST /v1/snapshot HTTP/1.1\r\nHost: e2e\r\nContent-Length: 0\r\n\r\n";
  uint64_t next = every;
  while (!shared->ingest_done.load() && !shared->failed.load()) {
    const uint64_t acked = shared->acked_receipts.load();
    if (acked < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    next = (acked / every + 1) * every;
    SnapshotRecord record;
    int code = 0;
    std::string_view body;
    record.send_ns = NowNs();
    const Status status = client.RoundTrip(wire, &code, &body);
    record.done_ns = NowNs();
    record.ok = status.ok() && code == 200;
    if (!record.ok) shared->Fail(DescribeFailure(status, code, body));
    records->push_back(record);
  }
  shared->AddClientCpu(CpuSeconds(RUSAGE_THREAD) - cpu_start);
}

}  // namespace

std::vector<IngestRecord> AckedBySequence(const LoadResult& load) {
  std::vector<IngestRecord> acked;
  for (const IngestRecord& record : load.ingests) {
    if (record.ok) acked.push_back(record);
  }
  std::sort(acked.begin(), acked.end(),
            [](const IngestRecord& a, const IngestRecord& b) {
              return a.first_sequence < b.first_sequence;
            });
  return acked;
}

LoadResult RunLoad(uint16_t port, const LoadPlan& plan) {
  const size_t clients = plan.clients->size();
  Shared shared(&plan, port, clients, plan.population->customers.size());
  shared.acked.Add(plan.preacked);

  std::vector<std::vector<IngestRecord>> ingests(clients);
  std::vector<ReadRecord> reads;
  std::vector<SnapshotRecord> snapshots;
  std::vector<std::thread> ingest_threads;
  for (uint32_t k = 0; k < clients; ++k) {
    ingest_threads.emplace_back(RunIngestClient, &shared, k, &ingests[k]);
  }
  std::vector<std::thread> side_threads;
  if (plan.read_rate > 0) {
    side_threads.emplace_back(RunReader, &shared, &reads);
  }
  if (plan.snapshot_every > 0) {
    side_threads.emplace_back(RunSnapshotTrigger, &shared, &snapshots);
  }
  shared.gate.Open(plan.seconds);
  const double cpu_start = CpuSeconds(RUSAGE_SELF);
  for (std::thread& thread : ingest_threads) thread.join();
  shared.ingest_done.store(true);
  for (std::thread& thread : side_threads) thread.join();

  LoadResult result;
  result.process_cpu_s = CpuSeconds(RUSAGE_SELF) - cpu_start;
  result.client_cpu_s = shared.client_cpu_s;
  result.t0_ns = shared.gate.t0_ns();
  result.end_ns = result.t0_ns;
  for (std::vector<IngestRecord>& records : ingests) {
    for (const IngestRecord& record : records) {
      if (record.timed) result.end_ns = std::max(result.end_ns, record.done_ns);
    }
    result.ingests.insert(result.ingests.end(), records.begin(),
                          records.end());
  }
  result.reads = std::move(reads);
  result.snapshots = std::move(snapshots);
  result.errors = std::move(shared.errors);
  return result;
}

}  // namespace e2e
}  // namespace churnlab
