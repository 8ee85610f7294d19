// Concurrency tests for the telemetry layer, written to run under
// ThreadSanitizer (scripts/check_sanitizers.sh): registry export while
// worker threads record, flight-recorder collection while rings are being
// overwritten, and the snapshotter sampling a registry under load.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot.h"

namespace churnlab {
namespace obs {
namespace {

constexpr int kWriterThreads = 4;
constexpr int kOpsPerWriter = 20000;

TEST(TelemetryConcurrency, ExportWhileWorkersRecord) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  // Register the shared metrics before any thread starts: an export that
  // runs before the first writer is scheduled must still have something
  // to export (an empty registry exports an empty document).
  registry.GetCounter("hammer.shared");
  registry.GetHistogram("hammer.lat_us");

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // Mix of a shared counter, per-thread labeled metrics, and a shared
      // histogram: exercises both map lookup and lock-free recording.
      Counter* shared = registry.GetCounter("hammer.shared");
      Histogram* latency = registry.GetHistogram("hammer.lat_us");
      const std::string labeled = LabeledMetricName(
          "hammer.per_thread", {{"thread", std::to_string(t)}});
      for (int i = 0; i < kOpsPerWriter; ++i) {
        shared->Increment();
        registry.GetCounter(labeled)->Increment();
        registry.GetGauge("hammer.gauge")->Set(static_cast<double>(i));
        latency->Record(static_cast<double>(i % 1000));
      }
    });
  }

  std::thread exporter([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const std::string prometheus = ExportPrometheus(snapshot);
      EXPECT_FALSE(prometheus.empty());
      const std::string telemetry =
          JsonExporter::ExportTelemetry(snapshot, nullptr);
      EXPECT_TRUE(ParseJson(telemetry).ok());
    }
  });

  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  const uint64_t expected =
      static_cast<uint64_t>(kWriterThreads) * kOpsPerWriter;
  EXPECT_EQ(registry.GetCounter("hammer.shared")->Value(), expected);
  EXPECT_EQ(registry.GetHistogram("hammer.lat_us")->Snapshot().count,
            expected);
}

TEST(TelemetryConcurrency, CollectWhileRingsOverwrite) {
  FlightRecorder::ResetForTest();
  FlightRecorder::Arm(FlightRecorder::Options{/*events_per_thread=*/256});
  const uint32_t site = FlightRecorder::RegisterSite("hammer.flight");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([site, t] {
      FlightRecorder::LabelThread("hammer-" + std::to_string(t));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        FlightRecorder::Record(site, static_cast<uint64_t>(i),
                               static_cast<uint64_t>(t));
      }
    });
  }

  std::thread collector([site, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Torn slots must be skipped, never decoded: every event we do see
      // carries a plausible payload.
      for (const FlightEvent& event : FlightRecorder::Collect()) {
        if (event.site != site) continue;
        EXPECT_LT(event.key, static_cast<uint64_t>(kOpsPerWriter));
        EXPECT_LT(event.duration_ns,
                  static_cast<uint64_t>(kWriterThreads));
      }
    }
  });

  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  collector.join();

  EXPECT_GE(FlightRecorder::TotalRecorded(),
            static_cast<uint64_t>(kWriterThreads) * kOpsPerWriter);
  FlightRecorder::Disarm();
  FlightRecorder::ResetForTest();
}

TEST(TelemetryConcurrency, SnapshotterSamplesUnderLoad) {
  MetricsRegistry registry;
  const std::string path =
      testing::TempDir() + "ts_concurrency.jsonl";
  TelemetrySnapshotter snapshotter({path, /*interval_ms=*/10}, &registry);
  ASSERT_TRUE(snapshotter.Start().ok());

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&registry] {
      Counter* counter = registry.GetCounter("hammer.sampled");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Increment();
        if (i % 256 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  snapshotter.Stop();
  EXPECT_GE(snapshotter.samples_taken(), 1u);

  // The file must be well-formed JSONL with the final total visible in the
  // last sample.
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, read);
  }
  std::fclose(file);
  size_t begin = 0;
  std::string last_line;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    if (!line.empty()) {
      EXPECT_TRUE(ParseJson(line).ok()) << line;
      last_line = line;
    }
    begin = end + 1;
  }
  auto parsed = ParseJson(last_line);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* entry = parsed->Find("counters")->Find("hammer.sampled");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("total")->number,
            static_cast<double>(kWriterThreads) * kOpsPerWriter);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace churnlab
