// Pins the decisions of the journal recovery scan on a multi-segment
// journal: an interior corruption in a sealed segment is DataLoss naming
// that segment, a bad CRC in the newest segment truncates exactly at the
// failing frame's start, and ScoringFleet::Recover reproduces an offline
// one-thread replay byte for byte whatever the caller's thread count.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
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

/// Writes kFrames frames into a journal that rotates every few frames.
void WriteJournal(const std::string& dir) {
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.max_segment_bytes = kMaxSegmentBytes;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  for (size_t frame = 0; frame < kFrames; ++frame) {
    const uint64_t first = frame * kReceiptsPerFrame;
    ASSERT_TRUE(journal.Append(first, FrameReceipts(first)).ok());
  }
}

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
  for (const JournalFrame& frame : recovery.frames) {
    ASSERT_TRUE(offline.IngestBatch(frame.receipts).ok());
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

}  // namespace
}  // namespace serve
}  // namespace churnlab
