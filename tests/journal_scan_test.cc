// Pins the decisions of the journal recovery scan on a multi-segment
// journal: an interior corruption in a sealed segment is DataLoss naming
// that segment, a bad CRC in the newest segment truncates exactly at the
// failing frame's start, and ScoringFleet::Recover reproduces an offline
// one-thread replay byte for byte whatever the caller's thread count. The
// offline oracle ingests the journal one IngestBatch per frame, so Recover
// must also quarantine, fail and ride out shard faults as that replay does.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "serve/fleet.h"
#include "serve/journal.h"

namespace churnlab {
namespace serve {
namespace {

using retail::Receipt;

constexpr size_t kFrames = 48;
constexpr size_t kReceiptsPerFrame = 5;
constexpr uint64_t kMaxSegmentBytes = 400;

/// Where one frame sits in its segment file.
struct FrameSpan {
  uint64_t start = 0;           ///< offset of the frame's size varint
  uint64_t payload_offset = 0;  ///< offset of the payload
  uint64_t crc_offset = 0;      ///< offset of the CRC varint
  uint64_t first_sequence = 0;
};

struct SegmentFrames {
  std::string path;
  std::vector<FrameSpan> frames;
};

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<Receipt> FrameReceipts(uint64_t first) {
  std::vector<Receipt> receipts;
  for (uint64_t sequence = first; sequence < first + kReceiptsPerFrame;
       ++sequence) {
    Receipt receipt;
    receipt.customer = static_cast<retail::CustomerId>(1 + sequence % 11);
    receipt.day = static_cast<retail::Day>(sequence / 11 * 5);
    receipt.spend = 0.5 + static_cast<double>(sequence % 13);
    receipt.items = {static_cast<retail::ItemId>(10 + sequence % 4),
                     static_cast<retail::ItemId>(20 + sequence % 9 / 3)};
    receipts.push_back(std::move(receipt));
  }
  return receipts;
}

/// The receipts of every frame, frame k holding sequences
/// [k * kReceiptsPerFrame, (k + 1) * kReceiptsPerFrame).
std::vector<std::vector<Receipt>> CleanFrames() {
  std::vector<std::vector<Receipt>> frames;
  for (size_t frame = 0; frame < kFrames; ++frame) {
    frames.push_back(FrameReceipts(frame * kReceiptsPerFrame));
  }
  return frames;
}

/// Writes `frames` into a journal that rotates every few frames.
void WriteFrames(const std::string& dir,
                 const std::vector<std::vector<Receipt>>& frames) {
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.max_segment_bytes = kMaxSegmentBytes;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  uint64_t first = 0;
  for (const std::vector<Receipt>& frame : frames) {
    ASSERT_TRUE(journal.Append(first, frame).ok());
    first += frame.size();
  }
}

/// Writes kFrames clean frames.
void WriteJournal(const std::string& dir) { WriteFrames(dir, CleanFrames()); }

/// Frames each segment file of `dir`, in segment order, with the on-disk
/// layout of docs/API.md: an 8-byte magic, varint version and segment
/// number, then [varint size, varint crc, payload] frames.
std::vector<SegmentFrames> FrameSegments(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".chlj") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SegmentFrames> segments;
  for (const std::string& path : paths) {
    BinaryReader reader = BinaryReader::OpenFile(path).ValueOrDie();
    const uint64_t total = reader.remaining();
    const auto offset = [&] { return total - reader.remaining(); };
    EXPECT_TRUE(reader.ReadBytes(8).ok());
    EXPECT_TRUE(reader.ReadVarint().ok());
    EXPECT_TRUE(reader.ReadVarint().ok());
    SegmentFrames segment{path, {}};
    while (!reader.AtEnd()) {
      FrameSpan span;
      span.start = offset();
      const uint64_t size = reader.ReadVarint().ValueOrDie();
      span.crc_offset = offset();
      reader.ReadVarint().ValueOrDie();
      span.payload_offset = offset();
      BinaryReader payload(reader.ReadBytes(size).ValueOrDie());
      span.first_sequence = payload.ReadVarint().ValueOrDie();
      segment.frames.push_back(span);
    }
    segments.push_back(std::move(segment));
  }
  return segments;
}

void FlipBit(const std::string& path, uint64_t offset, uint8_t mask) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ mask);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

TEST(JournalScanTest, InteriorFlipInASealedSegmentIsDataLossNamingIt) {
  const std::string dir = FreshDir("journal_scan_interior");
  WriteJournal(dir);
  const std::vector<SegmentFrames> segments = FrameSegments(dir);
  ASSERT_GE(segments.size(), 3u);

  // Find global frame 20; it must sit in a sealed (not the newest) segment.
  size_t seen = 0;
  size_t holder = segments.size();
  FrameSpan target;
  for (size_t i = 0; i < segments.size() && holder == segments.size(); ++i) {
    for (const FrameSpan& span : segments[i].frames) {
      if (seen++ == 20) {
        holder = i;
        target = span;
        break;
      }
    }
  }
  ASSERT_LT(holder + 1, segments.size());
  EXPECT_EQ(target.first_sequence, 20 * kReceiptsPerFrame);
  FlipBit(segments[holder].path, target.payload_offset + 3, 0x10);

  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.recover = true;
  JournalRecovery recovery;
  const Result<IngestJournal> opened = IngestJournal::Open(options, &recovery);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(opened.status().message().find(segments[holder].path),
            std::string::npos)
      << opened.status().ToString();
  // Nothing was truncated: the newest segment is untouched.
  EXPECT_EQ(FrameSegments(dir).back().frames.size(),
            segments.back().frames.size());
}

TEST(JournalScanTest, BadCrcInTheNewestSegmentTruncatesAtThatFrame) {
  const std::string dir = FreshDir("journal_scan_torn");
  WriteJournal(dir);
  const std::vector<SegmentFrames> segments = FrameSegments(dir);
  ASSERT_GE(segments.size(), 3u);
  const SegmentFrames& newest = segments.back();
  ASSERT_GE(newest.frames.size(), 3u);
  const size_t k = newest.frames.size() / 2;
  const FrameSpan bad = newest.frames[k];
  // Flip the CRC's lowest bit: the varint keeps its length, the frame
  // keeps its framing, only the checksum no longer matches.
  FlipBit(newest.path, bad.crc_offset, 0x01);

  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.max_segment_bytes = kMaxSegmentBytes;
  options.recover = true;
  JournalRecovery recovery;
  Result<IngestJournal> opened = IngestJournal::Open(options, &recovery);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(recovery.next_sequence, bad.first_sequence);
  EXPECT_EQ(opened->next_sequence(), bad.first_sequence);
  EXPECT_EQ(recovery.discarded_tail_frames, 1u);
  EXPECT_EQ(recovery.segments_scanned, segments.size());
  EXPECT_EQ(std::filesystem::file_size(newest.path), bad.start);
  ASSERT_FALSE(recovery.frames.empty());
  EXPECT_EQ(recovery.frames.back().end_sequence(), bad.first_sequence);
  EXPECT_EQ(recovery.frames.size() * kReceiptsPerFrame, bad.first_sequence);

  // Appending resumes at the truncation point, and a second scan is clean.
  ASSERT_TRUE(
      opened->Append(bad.first_sequence, FrameReceipts(bad.first_sequence))
          .ok());
  opened->Close();
  options.read_only = true;
  JournalRecovery rescan;
  ASSERT_TRUE(IngestJournal::Open(options, &rescan).ok());
  EXPECT_EQ(rescan.discarded_tail_frames, 0u);
  EXPECT_EQ(rescan.next_sequence, bad.first_sequence + kReceiptsPerFrame);
}

TEST(JournalScanTest, FrameClaimingMoreReceiptsThanItsBytesHoldIsATornTail) {
  // A CRC-valid frame whose header claims 1,000 receipts but whose payload
  // holds one: the scan sizes its slots from the bytes, not the claim, and
  // the frame fails to decode like any torn tail.
  const std::string dir = FreshDir("journal_scan_lying_count");
  std::vector<std::vector<Receipt>> frames = CleanFrames();
  frames.resize(3);
  WriteFrames(dir, frames);
  BinaryWriter payload;
  payload.WriteVarint(3 * kReceiptsPerFrame);  // first sequence
  payload.WriteVarint(1000);                   // claimed receipt count
  payload.WriteVarint(1);                      // the one receipt
  payload.WriteSignedVarint(60);
  payload.WriteDouble(1.5);
  payload.WriteVarint(1);
  payload.WriteVarint(10);
  BinaryWriter frame;
  frame.WriteVarint(payload.buffer().size());
  frame.WriteVarint(Crc32(payload.buffer().data(), payload.buffer().size()));
  frame.WriteBytes(payload.buffer().data(), payload.buffer().size());
  const std::vector<SegmentFrames> segments = FrameSegments(dir);
  ASSERT_TRUE(frame.AppendToFile(segments.back().path).ok());

  JournalOptions options;
  options.directory = dir;
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  const Result<IngestJournal> opened = IngestJournal::Open(options, &recovery);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(recovery.discarded_tail_frames, 1u);
  EXPECT_EQ(recovery.next_sequence, 3 * kReceiptsPerFrame);
  EXPECT_EQ(recovery.frames.size(), 3u);
  EXPECT_EQ(recovery.receipts.size(), 3 * kReceiptsPerFrame);
}

FleetOptions ReplayFleetOptions(size_t num_threads) {
  FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  options.num_threads = num_threads;
  options.granularity = retail::Granularity::kProduct;
  options.policy.beta = 0.5;
  options.policy.warmup_windows = 1;
  return options;
}

std::string SnapshotBytes(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

TEST(JournalScanTest, RecoverMatchesAnOfflineOneThreadReplay) {
  const std::string dir = FreshDir("journal_scan_replay");
  WriteJournal(dir);
  JournalOptions options;
  options.directory = dir;
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  ASSERT_TRUE(IngestJournal::Open(options, &recovery).ok());
  ASSERT_EQ(recovery.frames.size(), kFrames);
  ASSERT_GE(recovery.segments_scanned, 3u);

  auto offline = ScoringFleet::Make(ReplayFleetOptions(1), nullptr)
                     .ValueOrDie();
  for (size_t k = 0; k < recovery.frames.size(); ++k) {
    ASSERT_TRUE(offline.IngestBatch(recovery.FrameReceipts(k)).ok());
  }
  const std::string expected = SnapshotBytes(offline);

  for (const size_t threads : {size_t{1}, size_t{3}}) {
    Result<ScoringFleet> recovered = ScoringFleet::Recover(
        recovery, "", ReplayFleetOptions(threads), nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(SnapshotBytes(*recovered), expected) << threads << " threads";
    EXPECT_EQ(recovered->options().num_threads, threads);
    EXPECT_EQ(recovered->HealthReport().queue_depth, 0u);
  }
}

// Frames holding the two kinds of item error: frame kInvalidFrame holds a
// receipt with an invalid customer id, frame kRewoundFrame a receipt dated
// back into a window its customer's stream has already closed.
constexpr size_t kInvalidFrame = 7;
constexpr size_t kRewoundFrame = 30;

std::vector<std::vector<Receipt>> FramesWithBadReceipts(bool invalid,
                                                        bool rewound) {
  std::vector<std::vector<Receipt>> frames = CleanFrames();
  if (invalid) frames[kInvalidFrame][2].customer = retail::kInvalidCustomer;
  // Sequence 30 * 5 + 1 = 151: customer 1 + 151 % 11 = 9 at day 65, whose
  // stream is two 30-day windows past day 0 by then.
  if (rewound) frames[kRewoundFrame][1].day = 0;
  return frames;
}

JournalRecovery ScanJournal(const std::string& dir) {
  JournalOptions options;
  options.directory = dir;
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  EXPECT_TRUE(IngestJournal::Open(options, &recovery).ok());
  return recovery;
}

/// What the pins compare of a fleet: its snapshot bytes, and per shard the
/// receipts ingested, the items rejected and the alerts raised.
struct FleetView {
  std::string snapshot;
  std::vector<std::vector<uint64_t>> shards;
  bool operator==(const FleetView&) const = default;
};

FleetView ViewOf(const ScoringFleet& fleet) {
  FleetView view{SnapshotBytes(fleet), {}};
  for (const ShardHealthStats& shard : fleet.HealthReport().shards) {
    view.shards.push_back({shard.receipts, shard.rejected, shard.alerts});
  }
  return view;
}

FleetOptions PinFleetOptions(size_t num_threads, bool quarantine) {
  FleetOptions options = ReplayFleetOptions(num_threads);
  options.quarantine_malformed = quarantine;
  options.shard_retry.initial_backoff_ms = 0.0;
  return options;
}

/// The offline oracle: one IngestBatch per journal frame, one thread.
/// Returns the first failing frame's error, in Recover's context.
Result<ScoringFleet> ReplayPerFrame(
    const std::vector<std::vector<Receipt>>& frames, bool quarantine) {
  auto fleet =
      ScoringFleet::Make(PinFleetOptions(1, quarantine), nullptr).ValueOrDie();
  uint64_t first = 0;
  for (const std::vector<Receipt>& frame : frames) {
    const Result<BatchReport> report = fleet.IngestBatch(frame);
    if (!report.ok()) {
      return report.status().WithContext(
          "replaying journal frame at sequence " + std::to_string(first));
    }
    first += frame.size();
  }
  return fleet;
}

TEST(JournalScanTest, RecoverQuarantinesAsAPerFrameReplay) {
  const std::string dir = FreshDir("journal_scan_quarantine");
  const auto frames = FramesWithBadReceipts(true, true);
  WriteFrames(dir, frames);
  const JournalRecovery recovery = ScanJournal(dir);

  Result<ScoringFleet> offline = ReplayPerFrame(frames, true);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  const FleetView expected = ViewOf(*offline);
  uint64_t rejected = 0;
  for (const std::vector<uint64_t>& shard : expected.shards) {
    rejected += shard[1];
  }
  ASSERT_EQ(rejected, 2u);  // both bad receipts were quarantined

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Result<ScoringFleet> recovered = ScoringFleet::Recover(
        recovery, "", PinFleetOptions(threads, true), nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(ViewOf(*recovered), expected) << threads << " threads";
  }
}

TEST(JournalScanTest, RecoverWithoutQuarantineFailsAtTheBadReceiptsFrame) {
  const struct {
    bool invalid;
    bool rewound;
    size_t failing_frame;
  } cases[] = {{true, true, kInvalidFrame},
               {false, true, kRewoundFrame},
               {true, false, kInvalidFrame}};
  for (const auto& bad : cases) {
    const std::string dir = FreshDir("journal_scan_no_quarantine");
    const auto frames = FramesWithBadReceipts(bad.invalid, bad.rewound);
    WriteFrames(dir, frames);
    const JournalRecovery recovery = ScanJournal(dir);

    const Result<ScoringFleet> offline = ReplayPerFrame(frames, false);
    ASSERT_FALSE(offline.ok());
    const std::string context =
        "replaying journal frame at sequence " +
        std::to_string(bad.failing_frame * kReceiptsPerFrame);
    ASSERT_NE(offline.status().message().find(context), std::string::npos)
        << offline.status().ToString();

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      const Result<ScoringFleet> recovered = ScoringFleet::Recover(
          recovery, "", PinFleetOptions(threads, false), nullptr);
      ASSERT_FALSE(recovered.ok()) << threads << " threads";
      EXPECT_EQ(recovered.status().code(), offline.status().code())
          << recovered.status().ToString();
      EXPECT_NE(recovered.status().message().find(context), std::string::npos)
          << recovered.status().ToString() << " (" << threads << " threads)";
    }
  }
}

TEST(JournalScanTest, RecoverRidesOutAThrowingShardTask) {
  const std::string dir = FreshDir("journal_scan_shard_throw");
  const auto frames = FramesWithBadReceipts(true, true);
  WriteFrames(dir, frames);
  const JournalRecovery recovery = ScanJournal(dir);
  Result<ScoringFleet> offline = ReplayPerFrame(frames, true);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  const std::string expected = SnapshotBytes(*offline);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("serve.shard.task=throw@nth(2)")
                    .ok());
    Result<ScoringFleet> recovered = ScoringFleet::Recover(
        recovery, "", PinFleetOptions(threads, true), nullptr);
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(SnapshotBytes(*recovered), expected) << threads << " threads";
    EXPECT_TRUE(recovered->ShardHealth(0).ok());
    EXPECT_EQ(recovered->HealthReport().poisoned_shards, 0u);
  }
}

TEST(JournalScanTest, RecoverRidesOutSparseReceiptFaultsOverTheWholeReplay) {
  // One receipt in seven throws. Over the whole replay every shard meets
  // more faults than its retry budget, but no receipt fails twice in a
  // row, so — as in a replay of one IngestBatch per frame — each fault is
  // retried away and the recovered fleet equals the fault-free oracle.
  const std::string dir = FreshDir("journal_scan_receipt_throw");
  const auto frames = FramesWithBadReceipts(true, true);
  WriteFrames(dir, frames);
  const JournalRecovery recovery = ScanJournal(dir);
  Result<ScoringFleet> offline = ReplayPerFrame(frames, true);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  const FleetView expected = ViewOf(*offline);
  const Failpoint* const site =
      FailpointRegistry::Global().Get("serve.ingest.receipt");
  constexpr char kSpec[] = "serve.ingest.receipt=throw@every(7)";

  // The per-frame replay rides the faults out too.
  ASSERT_TRUE(FailpointRegistry::Global().ArmFromSpec(kSpec).ok());
  Result<ScoringFleet> faulty_offline = ReplayPerFrame(frames, true);
  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(faulty_offline.ok()) << faulty_offline.status().ToString();
  EXPECT_EQ(ViewOf(*faulty_offline), expected);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(FailpointRegistry::Global().ArmFromSpec(kSpec).ok());
    const FleetOptions options = PinFleetOptions(threads, true);
    Result<ScoringFleet> recovered =
        ScoringFleet::Recover(recovery, "", options, nullptr);
    const uint64_t fires = site->fires();
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // More faults than all shards' budgets together: some shard met more
    // than max_retries of them.
    EXPECT_GT(fires, options.num_shards *
                         static_cast<uint64_t>(options.shard_retry.max_retries))
        << threads << " threads";
    EXPECT_EQ(recovered->HealthReport().poisoned_shards, 0u)
        << threads << " threads";
    EXPECT_EQ(ViewOf(*recovered), expected) << threads << " threads";
  }
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
