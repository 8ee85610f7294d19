// End-to-end tests of the HTTP/1.1 scoring front end over a real
// ScoringFleet: every endpoint, the error taxonomy on the wire, overload
// shedding, keep-alive, graceful drain, and the acceptance property — a
// multi-client ingest flood coalesced by the server produces a fleet
// byte-identical to an offline replay of the same receipts in arrival
// order.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "net/backend.h"
#include "obs/metrics.h"
#include "serve/fleet.h"
#include "serve/journal.h"

namespace churnlab {
namespace net {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

serve::FleetOptions ServerFleetOptions() {
  serve::FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  options.num_threads = 1;
  options.granularity = retail::Granularity::kProduct;
  options.policy.beta = 0.5;
  options.policy.warmup_windows = 1;
  options.policy.drop_threshold = 2.0;
  return options;
}

std::string SnapshotOf(const serve::ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

/// A generation file holding exactly one generation of `payload`: magic,
/// varint size, varint CRC32, payload.
std::string OneGenerationOf(const std::string& payload) {
  BinaryWriter writer;
  writer.WriteBytes("CHLFGENS", 8);
  writer.WriteVarint(payload.size());
  writer.WriteVarint(Crc32(payload.data(), payload.size()));
  writer.WriteBytes(payload.data(), payload.size());
  return writer.buffer();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Minimal blocking HTTP client over raw sockets (the server is the thing
// under test, so the client shares no code with it).

struct HttpReply {
  bool transport_ok = false;
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(const std::string& lowercase_name) const {
    for (const auto& [name, value] : headers) {
      if (name == lowercase_name) return &value;
    }
    return nullptr;
  }
};

class ClientConnection {
 public:
  explicit ClientConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = inet_addr("127.0.0.1");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool SendAll(std::string_view data) {
    while (!data.empty()) {
      const ssize_t sent = ::send(fd_, data.data(), data.size(), 0);
      if (sent <= 0) return false;
      data.remove_prefix(static_cast<size_t>(sent));
    }
    return true;
  }

  /// Reads exactly one response (framed by Content-Length). Leaves the
  /// connection open so keep-alive sequences can reuse it.
  HttpReply ReadReply() {
    HttpReply reply;
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Recv()) return reply;
    }
    const std::string head = buffer_.substr(0, header_end);
    buffer_.erase(0, header_end + 4);

    std::istringstream lines(head);
    std::string line;
    if (!std::getline(lines, line)) return reply;
    if (line.size() < 12 || line.compare(0, 5, "HTTP/") != 0) return reply;
    reply.status = std::atoi(line.c_str() + 9);
    size_t content_length = 0;
    while (std::getline(lines, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      size_t value_begin = colon + 1;
      while (value_begin < line.size() && line[value_begin] == ' ') {
        ++value_begin;
      }
      std::string value = line.substr(value_begin);
      if (name == "content-length") {
        content_length = static_cast<size_t>(std::stoull(value));
      }
      reply.headers.emplace_back(std::move(name), std::move(value));
    }
    while (buffer_.size() < content_length) {
      if (!Recv()) return reply;
    }
    reply.body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
    reply.transport_ok = true;
    return reply;
  }

 private:
  bool Recv() {
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(got));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string RawRequest(const std::string& method, const std::string& path,
                       const std::string& body, bool close_connection) {
  std::string raw = method + " " + path + " HTTP/1.1\r\nHost: test\r\n";
  if (close_connection) raw += "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    raw += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  raw += "\r\n";
  raw += body;
  return raw;
}

/// One-shot request on a fresh connection.
HttpReply Call(uint16_t port, const std::string& method,
               const std::string& path, const std::string& body = "") {
  ClientConnection connection(port);
  if (!connection.connected()) return HttpReply{};
  if (!connection.SendAll(RawRequest(method, path, body, true))) {
    return HttpReply{};
  }
  return connection.ReadReply();
}

/// Extracts the integer after `"key":` in a flat JSON object.
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

// ---------------------------------------------------------------------------

std::string IngestBody(const std::vector<Receipt>& receipts) {
  std::string body = "{\"receipts\":[";
  for (size_t i = 0; i < receipts.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"customer\":" + std::to_string(receipts[i].customer) +
            ",\"day\":" + std::to_string(receipts[i].day);
    if (!receipts[i].items.empty()) {
      body += ",\"items\":[";
      for (size_t j = 0; j < receipts[i].items.size(); ++j) {
        if (j > 0) body += ',';
        body += std::to_string(receipts[i].items[j]);
      }
      body += ']';
    }
    body += '}';
  }
  body += "]}";
  return body;
}

Receipt MakeReceipt(CustomerId customer, Day day,
                    std::vector<retail::ItemId> items) {
  Receipt receipt;
  receipt.customer = customer;
  receipt.day = day;
  receipt.spend = 1.0;
  receipt.items = std::move(items);
  return receipt;
}

/// Fleet + backend + started server with an ephemeral port.
class TestServer {
 public:
  explicit TestServer(ServerOptions options = {},
                      FleetBackend::Options backend_options = {})
      : fleet_(serve::ScoringFleet::Make(ServerFleetOptions(), nullptr)
                   .ValueOrDie()),
        backend_(&fleet_, std::move(backend_options)) {
    options.port = 0;
    server_ = HttpServer::Make(std::move(options), &backend_).ValueOrDie();
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestServer() {
    if (server_ != nullptr) (void)server_->Shutdown();
  }

  uint16_t port() const { return server_->port(); }
  HttpServer& server() { return *server_; }
  serve::ScoringFleet& fleet() { return fleet_; }

 private:
  serve::ScoringFleet fleet_;
  FleetBackend backend_;
  std::unique_ptr<HttpServer> server_;
};

TEST(HttpServerTest, HealthAndMetricsEndpoints) {
  TestServer server;
  const HttpReply health = Call(server.port(), "GET", "/v1/health");
  ASSERT_TRUE(health.transport_ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"receipts_total\":0"), std::string::npos)
      << health.body;
  ASSERT_NE(health.FindHeader("content-type"), nullptr);
  EXPECT_NE(health.FindHeader("content-type")->find("application/json"),
            std::string::npos);

  const HttpReply metrics = Call(server.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.transport_ok);
  EXPECT_EQ(metrics.status, 200);
  ASSERT_NE(metrics.FindHeader("content-type"), nullptr);
  EXPECT_NE(metrics.FindHeader("content-type")->find("text/plain"),
            std::string::npos);
  // The health request above already bumped the request counter, so the
  // churnlab.net.* family must be present in the exposition.
  EXPECT_NE(metrics.body.find("churnlab_net_requests_total"),
            std::string::npos);
}

TEST(HttpServerTest, IngestThenQueryCustomer) {
  TestServer server;
  const std::vector<Receipt> receipts = {
      MakeReceipt(7, 1, {1, 2}),
      MakeReceipt(7, 40, {1}),
      MakeReceipt(9, 2, {3}),
  };
  const HttpReply ingest =
      Call(server.port(), "POST", "/v1/ingest", IngestBody(receipts));
  ASSERT_TRUE(ingest.transport_ok);
  EXPECT_EQ(ingest.status, 200) << ingest.body;
  EXPECT_EQ(JsonUint(ingest.body, "receipts_ingested"), 3u);
  EXPECT_EQ(JsonUint(ingest.body, "sequence"), 0u);
  // Coalesced slices cannot attribute first-sightings to a sub-span, so
  // new_customers is contractually 0 over HTTP (fleet.h SliceBatchReport).
  EXPECT_EQ(JsonUint(ingest.body, "new_customers"), 0u);

  const HttpReply customer = Call(server.port(), "GET", "/v1/customers/7");
  ASSERT_TRUE(customer.transport_ok);
  EXPECT_EQ(customer.status, 200) << customer.body;
  EXPECT_EQ(JsonUint(customer.body, "customer"), 7u);
  EXPECT_NE(customer.body.find("\"stability\""), std::string::npos);

  const HttpReply missing = Call(server.port(), "GET", "/v1/customers/9999");
  ASSERT_TRUE(missing.transport_ok);
  EXPECT_EQ(missing.status, 404) << missing.body;
  EXPECT_NE(missing.body.find("\"error\""), std::string::npos);

  const HttpReply bad_id = Call(server.port(), "GET", "/v1/customers/abc");
  ASSERT_TRUE(bad_id.transport_ok);
  EXPECT_EQ(bad_id.status, 400) << bad_id.body;
}

TEST(HttpServerTest, RoutingErrorsOnTheWire) {
  TestServer server;
  EXPECT_EQ(Call(server.port(), "GET", "/nope").status, 404);
  const HttpReply wrong_method = Call(server.port(), "DELETE", "/v1/health");
  EXPECT_EQ(wrong_method.status, 405);
  ASSERT_NE(wrong_method.FindHeader("allow"), nullptr);
  EXPECT_NE(wrong_method.FindHeader("allow")->find("GET"), std::string::npos);
}

TEST(HttpServerTest, MalformedIngestBodyIs400WithReason) {
  TestServer server;
  const HttpReply reply =
      Call(server.port(), "POST", "/v1/ingest", "{\"receipts\":[{\"x\":1}]}");
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 400) << reply.body;
  EXPECT_NE(reply.body.find("receipt 0"), std::string::npos) << reply.body;
  // The fleet never saw the batch.
  EXPECT_EQ(JsonUint(Call(server.port(), "GET", "/v1/health").body,
                     "receipts_total"),
            0u);
}

TEST(HttpServerTest, OversizedBatchIs413) {
  ServerOptions options;
  options.max_receipts_per_request = 2;
  TestServer server(options);
  const HttpReply reply =
      Call(server.port(), "POST", "/v1/ingest",
           IngestBody({MakeReceipt(1, 1, {}), MakeReceipt(2, 1, {}),
                       MakeReceipt(3, 1, {})}));
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 413) << reply.body;
}

TEST(HttpServerTest, OverloadShedsWith429AndRetryAfter) {
  ServerOptions options;
  options.admission.max_pending_bytes = 8;  // any real body overflows
  options.admission.retry_after_seconds = 3;
  TestServer server(options);
  const HttpReply reply = Call(server.port(), "POST", "/v1/ingest",
                               IngestBody({MakeReceipt(1, 1, {})}));
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 429) << reply.body;
  ASSERT_NE(reply.FindHeader("retry-after"), nullptr);
  EXPECT_EQ(*reply.FindHeader("retry-after"), "3");
  // Sheds never reach the fleet.
  EXPECT_EQ(JsonUint(Call(server.port(), "GET", "/v1/health").body,
                     "receipts_total"),
            0u);
}

TEST(HttpServerTest, OverloadFailpointForcesSheddingWithoutPressure) {
  FailpointRegistry::Global().DisarmAll();
  TestServer server;
  ASSERT_TRUE(
      FailpointRegistry::Global().ArmFromSpec("net.overload=error").ok());
  const HttpReply reply = Call(server.port(), "POST", "/v1/ingest",
                               IngestBody({MakeReceipt(1, 1, {})}));
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 500) << reply.body;
  EXPECT_NE(reply.body.find("\"error\""), std::string::npos);
  // The server survives the injected fault and keeps serving.
  EXPECT_EQ(Call(server.port(), "GET", "/v1/health").status, 200);
}

TEST(HttpServerTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  TestServer server;
  ClientConnection connection(server.port());
  ASSERT_TRUE(connection.connected());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(connection.SendAll(
        RawRequest("GET", "/v1/health", "", /*close_connection=*/false)));
    const HttpReply reply = connection.ReadReply();
    ASSERT_TRUE(reply.transport_ok) << "request " << i;
    EXPECT_EQ(reply.status, 200);
    ASSERT_NE(reply.FindHeader("connection"), nullptr);
    EXPECT_EQ(*reply.FindHeader("connection"), "keep-alive");
  }
  ASSERT_TRUE(connection.SendAll(
      RawRequest("GET", "/v1/health", "", /*close_connection=*/true)));
  const HttpReply last = connection.ReadReply();
  ASSERT_TRUE(last.transport_ok);
  ASSERT_NE(last.FindHeader("connection"), nullptr);
  EXPECT_EQ(*last.FindHeader("connection"), "close");
}

TEST(HttpServerTest, SnapshotEndpointWithoutPathIs409) {
  TestServer server;  // no snapshot path configured
  const HttpReply reply = Call(server.port(), "POST", "/v1/snapshot");
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 409) << reply.body;
}

TEST(HttpServerTest, SnapshotEndpointWritesConfiguredPath) {
  const std::string path = ::testing::TempDir() + "/net_server_snap.bin";
  std::remove(path.c_str());
  FleetBackend::Options backend_options;
  backend_options.snapshot_path = path;
  TestServer server(ServerOptions{}, backend_options);
  ASSERT_EQ(Call(server.port(), "POST", "/v1/ingest",
                 IngestBody({MakeReceipt(1, 1, {4}), MakeReceipt(2, 1, {5})}))
                .status,
            200);
  const HttpReply reply = Call(server.port(), "POST", "/v1/snapshot");
  ASSERT_TRUE(reply.transport_ok);
  EXPECT_EQ(reply.status, 200) << reply.body;
  EXPECT_NE(reply.body.find(path), std::string::npos) << reply.body;
  EXPECT_EQ(ReadFileBytes(path),
            OneGenerationOf(SnapshotOf(server.fleet())));
  std::remove(path.c_str());
}

TEST(HttpServerTest, DrainFlushesFinalSnapshotAndStopsAccepting) {
  const std::string path = ::testing::TempDir() + "/net_server_drain.bin";
  std::remove(path.c_str());
  FleetBackend::Options backend_options;
  backend_options.snapshot_path = path;
  ServerOptions options;
  options.poll_interval_ms = 10;
  auto server = std::make_unique<TestServer>(options, backend_options);
  const uint16_t port = server->port();
  ASSERT_EQ(Call(port, "POST", "/v1/ingest",
                 IngestBody({MakeReceipt(3, 1, {1})}))
                .status,
            200);
  server->server().RequestDrain();
  const Status drained = server->server().Wait();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_TRUE(server->server().draining());
  EXPECT_EQ(ReadFileBytes(path),
            OneGenerationOf(SnapshotOf(server->fleet())));
  // The listen socket is gone: new connections fail outright.
  ClientConnection refused(port);
  EXPECT_TRUE(!refused.connected() ||
              !Call(port, "GET", "/v1/health").transport_ok);
  server.reset();
  std::remove(path.c_str());
}

// The acceptance property: >= 8 concurrent clients flooding >= 50k receipts
// through coalesced ingest (with admission shedding possible and retried)
// leave the fleet byte-identical to an offline replay of the same
// per-request batches in arrival-sequence order.
TEST(HttpServerTest, FloodCoalescingMatchesOfflineReplayByteForByte) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 125;
  constexpr int kReceiptsPerRequest = 50;  // 8 * 125 * 50 = 50,000

  ServerOptions options;
  options.num_threads = 8;
  // Tight enough that concurrent bodies can overflow and shed; clients
  // retry on 429/503 until accepted.
  options.admission.max_inflight_requests = 4;
  options.coalescer.max_batch_receipts = 1024;
  TestServer server(options);

  struct SentRequest {
    uint64_t sequence = 0;
    std::vector<Receipt> receipts;
  };
  std::vector<std::vector<SentRequest>> sent(kClients);
  std::atomic<uint64_t> shed_count{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        std::vector<Receipt> receipts;
        receipts.reserve(kReceiptsPerRequest);
        for (int i = 0; i < kReceiptsPerRequest; ++i) {
          // Disjoint customer universes per client; days advance with the
          // request index, so per-customer order matches arrival order.
          const auto customer =
              static_cast<CustomerId>(c * 100000 + i % 50);
          receipts.push_back(MakeReceipt(
              customer, static_cast<Day>(1 + r * 3),
              {static_cast<retail::ItemId>(i % 7),
               static_cast<retail::ItemId>(100 + r % 3)}));
        }
        const std::string body = IngestBody(receipts);
        HttpReply reply;
        for (;;) {
          reply = Call(server.port(), "POST", "/v1/ingest", body);
          ASSERT_TRUE(reply.transport_ok);
          if (reply.status == 429 || reply.status == 503) {
            shed_count.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            continue;
          }
          break;
        }
        ASSERT_EQ(reply.status, 200) << reply.body;
        ASSERT_EQ(JsonUint(reply.body, "receipts_ingested"),
                  static_cast<uint64_t>(kReceiptsPerRequest));
        SentRequest record;
        record.sequence = JsonUint(reply.body, "sequence");
        record.receipts = std::move(receipts);
        sent[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  const HttpReply health = Call(server.port(), "GET", "/v1/health");
  ASSERT_EQ(health.status, 200);
  EXPECT_EQ(JsonUint(health.body, "receipts_total"),
            static_cast<uint64_t>(kClients) * kRequestsPerClient *
                kReceiptsPerRequest);
  EXPECT_EQ(JsonUint(health.body, "customers_total"),
            static_cast<uint64_t>(kClients) * 50);

  // Reconstruct the arrival order from the sequence numbers and replay it
  // offline through an identically-configured fleet.
  std::map<uint64_t, const SentRequest*> by_sequence;
  for (const auto& client_requests : sent) {
    for (const SentRequest& request : client_requests) {
      ASSERT_TRUE(by_sequence.emplace(request.sequence, &request).second)
          << "duplicate sequence " << request.sequence;
    }
  }
  serve::ScoringFleet offline =
      serve::ScoringFleet::Make(ServerFleetOptions(), nullptr).ValueOrDie();
  for (const auto& [sequence, request] : by_sequence) {
    const Result<serve::BatchReport> report = offline.IngestBatch(
        std::span<const Receipt>(request->receipts));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->rejected.empty());
  }

  EXPECT_EQ(SnapshotOf(server.fleet()), SnapshotOf(offline))
      << "coalesced server state diverged from arrival-order replay ("
      << shed_count.load() << " sheds during flood)";
}

// The durability property end to end through the HTTP stack: every
// acknowledged ingest is either captured by the checkpointed snapshot or
// replayable from the journal, and recovery reproduces the live fleet's
// state byte-for-byte — without any cooperation from the dying server
// (nothing here drains before the journal is scanned).
TEST(HttpServerTest, JournaledIngestRecoversServerStateByteForByte) {
  const std::string dir = ::testing::TempDir() + "/net_server_journal";
  const std::string snapshot_path =
      ::testing::TempDir() + "/net_server_journal_state.snap";
  std::filesystem::remove_all(dir);
  std::remove(snapshot_path.c_str());

  serve::JournalOptions journal_options;
  journal_options.directory = dir;
  journal_options.fsync = serve::FsyncPolicy::kNone;
  Result<serve::IngestJournal> journal =
      serve::IngestJournal::Open(journal_options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  serve::ScoringFleet fleet =
      serve::ScoringFleet::Make(ServerFleetOptions(), nullptr).ValueOrDie();
  FleetBackend::Options backend_options;
  backend_options.snapshot_path = snapshot_path;
  backend_options.journal = &*journal;
  FleetBackend backend(&fleet, backend_options);
  ServerOptions server_options;
  server_options.port = 0;
  std::unique_ptr<HttpServer> server =
      HttpServer::Make(server_options, &backend).ValueOrDie();
  ASSERT_TRUE(server->Start().ok());

  // Checkpointed prefix: three receipts, then an explicit snapshot (which
  // checkpoints the journal at watermark 3 and truncates behind it).
  const HttpReply first =
      Call(server->port(), "POST", "/v1/ingest",
           IngestBody({MakeReceipt(7, 1, {1, 2}), MakeReceipt(8, 1, {3}),
                       MakeReceipt(7, 40, {1})}));
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(JsonUint(first.body, "sequence"), 0u);
  ASSERT_EQ(Call(server->port(), "POST", "/v1/snapshot").status, 200);

  // Journal-only suffix: acknowledged but never snapshotted.
  const HttpReply second =
      Call(server->port(), "POST", "/v1/ingest",
           IngestBody({MakeReceipt(9, 2, {4}), MakeReceipt(7, 70, {2})}));
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(JsonUint(second.body, "sequence"), 3u);

  const std::string oracle = SnapshotOf(fleet);

  // "Crash": scan the on-disk journal read-only while the server is still
  // live — exactly what a recovering process would find after kill -9.
  serve::JournalOptions scan_options;
  scan_options.directory = dir;
  scan_options.recover = true;
  scan_options.read_only = true;
  serve::JournalRecovery recovery;
  Result<serve::IngestJournal> scan =
      serve::IngestJournal::Open(scan_options, &recovery);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(recovery.watermark, 3u);
  EXPECT_EQ(recovery.next_sequence, 5u);
  ASSERT_FALSE(recovery.frames.empty());
  EXPECT_EQ(recovery.frames.front().first_sequence, 3u);

  Result<serve::ScoringFleet> recovered = serve::ScoringFleet::Recover(
      recovery, snapshot_path, ServerFleetOptions(), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SnapshotOf(*recovered), oracle)
      << "recovered fleet diverged from the live server's state";

  ASSERT_TRUE(server->Shutdown().ok());
  server.reset();
  std::filesystem::remove_all(dir);
  std::remove(snapshot_path.c_str());
}

/// A started HttpServer over a fleet journaled with FsyncPolicy::kBatch in
/// a fresh directory under the test temp dir.
class JournaledTestServer {
 public:
  explicit JournaledTestServer(const std::string& name)
      : dir_(::testing::TempDir() + "/" + name),
        snapshot_path_(dir_ + "/state.snap"),
        fleet_(serve::ScoringFleet::Make(ServerFleetOptions(), nullptr)
                   .ValueOrDie()) {
    std::filesystem::remove_all(dir_);
    serve::JournalOptions journal_options;
    journal_options.directory = dir_ + "/journal";
    journal_options.fsync = serve::FsyncPolicy::kBatch;
    journal_ = std::make_unique<serve::IngestJournal>(
        serve::IngestJournal::Open(journal_options).ValueOrDie());
    FleetBackend::Options backend_options;
    backend_options.snapshot_path = snapshot_path_;
    backend_options.journal = journal_.get();
    backend_ = std::make_unique<FleetBackend>(&fleet_, backend_options);
    ServerOptions options;
    options.port = 0;
    server_ = HttpServer::Make(options, backend_.get()).ValueOrDie();
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~JournaledTestServer() {
    if (server_ != nullptr) (void)server_->Shutdown();
    server_.reset();
    backend_.reset();
    journal_.reset();
    std::filesystem::remove_all(dir_);
  }

  uint16_t port() const { return server_->port(); }
  serve::IngestJournal& journal() { return *journal_; }

 private:
  std::string dir_;
  std::string snapshot_path_;
  serve::ScoringFleet fleet_;
  std::unique_ptr<serve::IngestJournal> journal_;
  std::unique_ptr<FleetBackend> backend_;
  std::unique_ptr<HttpServer> server_;
};

// Fail-stop: after a failed fsync the kernel may have dropped the dirty
// pages, so nothing is acknowledged again — the round whose fsync failed,
// every later ingest (refused before it reaches the journal) and the
// health check all report DataLoss as HTTP 500.
TEST(HttpServerTest, FailedJournalFsyncStopsAcknowledgingIngests) {
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(FailpointRegistry::Global()
                  .ArmFromSpec("serve.journal.fsync=error@nth(2)")
                  .ok());
  {
    JournaledTestServer server("net_server_fail_stop");
    const HttpReply first =
        Call(server.port(), "POST", "/v1/ingest",
             IngestBody({MakeReceipt(1, 1, {1}), MakeReceipt(2, 1, {2})}));
    EXPECT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(server.journal().durable_sequence(), 2u);

    const HttpReply second = Call(server.port(), "POST", "/v1/ingest",
                                  IngestBody({MakeReceipt(3, 2, {1})}));
    EXPECT_EQ(second.status, 500) << second.body;
    EXPECT_NE(second.body.find("Data loss"), std::string::npos)
        << second.body;
    // Appended and applied, never made durable, never acknowledged.
    EXPECT_EQ(server.journal().next_sequence(), 3u);
    EXPECT_EQ(server.journal().durable_sequence(), 2u);

    const HttpReply third = Call(server.port(), "POST", "/v1/ingest",
                                 IngestBody({MakeReceipt(4, 3, {1})}));
    EXPECT_EQ(third.status, 500) << third.body;
    EXPECT_NE(third.body.find("Data loss"), std::string::npos) << third.body;
    EXPECT_EQ(server.journal().next_sequence(), 3u)
        << "an ingest after the failed fsync reached the journal";

    const HttpReply health = Call(server.port(), "GET", "/v1/health");
    EXPECT_EQ(health.status, 500) << health.body;
    EXPECT_NE(health.body.find("fsync"), std::string::npos) << health.body;
  }
  FailpointRegistry::Global().DisarmAll();
}

// Two clients against a journaled server: every receipt is acknowledged,
// the group-commit metrics are exported, and the durable watermark ends at
// the journal's next sequence.
TEST(HttpServerTest, TwoClientJournaledRunExportsGroupCommitMetrics) {
  FailpointRegistry::Global().DisarmAll();
  obs::Histogram* rounds_per_fsync =
      obs::MetricsRegistry::Global().GetHistogram(
          "churnlab.journal.rounds_per_fsync");
  const obs::HistogramSnapshot before = rounds_per_fsync->Snapshot();
  JournaledTestServer server("net_server_group_commit");
  constexpr int kClients = 2;
  constexpr int kRequests = 60;
  constexpr int kReceipts = 64;
  std::vector<std::thread> clients;
  std::atomic<int> acked{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientConnection connection(server.port());
      ASSERT_TRUE(connection.connected());
      for (int r = 0; r < kRequests; ++r) {
        std::vector<Receipt> receipts;
        for (int i = 0; i < kReceipts; ++i) {
          receipts.push_back(MakeReceipt(
              static_cast<CustomerId>(c * 1000 + i), r, {1, 2}));
        }
        ASSERT_TRUE(connection.SendAll(RawRequest(
            "POST", "/v1/ingest", IngestBody(receipts), false)));
        const HttpReply reply = connection.ReadReply();
        ASSERT_EQ(reply.status, 200) << reply.body;
        acked.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_EQ(acked.load(), kClients * kRequests);
  const uint64_t total = uint64_t{kClients} * kRequests * kReceipts;
  EXPECT_EQ(server.journal().next_sequence(), total);
  EXPECT_EQ(server.journal().durable_sequence(), total);

  const HttpReply metrics = Call(server.port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("churnlab_journal_rounds_per_fsync_count"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("churnlab_journal_durable_sequence " +
                              std::to_string(total)),
            std::string::npos)
      << metrics.body;
  const obs::HistogramSnapshot after = rounds_per_fsync->Snapshot();
  const uint64_t fsyncs = after.count - before.count;
  const double rounds = after.sum - before.sum;
  ASSERT_GT(fsyncs, 0u);
  // Every round is covered by exactly one fsync.
  EXPECT_LE(rounds, static_cast<double>(kClients * kRequests));
  std::printf("rounds per fsync over a 2-client run: %.2f (%llu fsyncs)\n",
              rounds / static_cast<double>(fsyncs),
              static_cast<unsigned long long>(fsyncs));
}

// A second termination signal during a drain means NOW: the process exits
// immediately with a nonzero status and a structured drain_forced log
// event, instead of the signal being swallowed while the drain runs.
TEST(HttpServerTest, SecondTerminationSignalForcesImmediateExit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        serve::ScoringFleet fleet =
            serve::ScoringFleet::Make(ServerFleetOptions(), nullptr)
                .ValueOrDie();
        FleetBackend backend(&fleet, FleetBackend::Options{});
        ServerOptions options;
        options.port = 0;
        std::unique_ptr<HttpServer> server =
            HttpServer::Make(options, &backend).ValueOrDie();
        if (!server->Start().ok()) ::_exit(97);
        if (!server->InstallSignalHandler().ok()) ::_exit(98);
        ::raise(SIGTERM);  // first: begins the graceful drain
        ::raise(SIGTERM);  // second: forced exit from the handler
        ::_exit(99);       // unreachable
      },
      ::testing::ExitedWithCode(3), "drain_forced");
}

}  // namespace
}  // namespace net
}  // namespace churnlab
