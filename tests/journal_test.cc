// Unit tests for the durable ingest journal: append/scan round trips,
// sequence-contiguity enforcement, segment rotation, checkpoint +
// truncation, fresh-open safety, read-only scans, and fleet recovery
// (checkpoint + replay == uninterrupted ingest, byte for byte).

#include "serve/journal.h"

#include <sys/stat.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "serve/fleet.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

std::string FreshDir(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::vector<Receipt> MakeReceipts(uint64_t first, size_t count) {
  std::vector<Receipt> receipts;
  receipts.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Receipt receipt;
    receipt.customer = static_cast<CustomerId>(1 + (first + i) % 7);
    receipt.day = static_cast<Day>((first + i) / 7);
    receipt.spend = 1.25 * static_cast<double>(i + 1);
    receipt.items = {static_cast<retail::ItemId>(100 + i % 3), 200};
    receipts.push_back(std::move(receipt));
  }
  return receipts;
}

TEST(JournalTest, FreshOpenAppendScanRoundTrips) {
  const std::string dir = FreshDir("journal_roundtrip");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    EXPECT_EQ(journal.next_sequence(), 0u);
    ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 3)).ok());
    ASSERT_TRUE(journal.Append(3, MakeReceipts(3, 2)).ok());
    EXPECT_EQ(journal.next_sequence(), 5u);
    ASSERT_TRUE(journal.Sync().ok());
  }
  options.recover = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.watermark, 0u);
  EXPECT_EQ(recovery.snapshot.kind, SnapshotRef::Kind::kNone);
  ASSERT_EQ(recovery.frames.size(), 2u);
  EXPECT_EQ(recovery.frames[0].first_sequence, 0u);
  EXPECT_EQ(recovery.frames[0].count, 3u);
  EXPECT_EQ(recovery.frames[1].first_sequence, 3u);
  EXPECT_EQ(recovery.frames[1].count, 2u);
  ASSERT_EQ(recovery.receipts.size(), 5u);
  EXPECT_EQ(recovery.FrameReceipts(1).data(), recovery.receipts.data() + 3);
  EXPECT_EQ(recovery.next_sequence, 5u);
  EXPECT_EQ(recovery.discarded_tail_frames, 0u);
  // Receipt payloads round-trip exactly.
  const std::vector<Receipt> expected = MakeReceipts(0, 3);
  const std::span<const Receipt> first = recovery.FrameReceipts(0);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(first[i].customer, expected[i].customer);
    EXPECT_EQ(first[i].day, expected[i].day);
    EXPECT_EQ(first[i].spend, expected[i].spend);
    EXPECT_EQ(first[i].items, expected[i].items);
  }
  // Appending resumes at the recovered sequence.
  ASSERT_TRUE(journal.Append(5, MakeReceipts(5, 1)).ok());
  EXPECT_EQ(journal.next_sequence(), 6u);
}

TEST(JournalTest, OpenWithoutRecoverRefusesExistingFrames) {
  const std::string dir = FreshDir("journal_refuse");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 2)).ok());
  }
  const Result<IngestJournal> reopened = IngestJournal::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsFailedPrecondition())
      << reopened.status().ToString();
}

TEST(JournalTest, AppendEnforcesSequenceContiguity) {
  const std::string dir = FreshDir("journal_contiguity");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 4)).ok());
  EXPECT_TRUE(journal.Append(3, MakeReceipts(3, 1))
                  .IsInvalidArgument());  // overlap
  EXPECT_TRUE(journal.Append(5, MakeReceipts(5, 1))
                  .IsInvalidArgument());  // gap
  ASSERT_TRUE(journal.Append(4, MakeReceipts(4, 1)).ok());
}

TEST(JournalTest, SegmentsRotateAndCheckpointTruncates) {
  const std::string dir = FreshDir("journal_rotate");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.max_segment_bytes = 256;  // force frequent rotation
  uint64_t sequence = 0;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(journal.Append(sequence, MakeReceipts(sequence, 5)).ok());
      sequence += 5;
    }
    size_t segments = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      segments += entry.path().extension() == ".chlj" ? 1 : 0;
    }
    EXPECT_GT(segments, 3u);

    // Checkpoint at a mid-stream watermark: only fully-covered segments go.
    SnapshotRef ref;
    ref.kind = SnapshotRef::Kind::kGeneration;
    ref.size = 123;
    ref.crc = 456;
    ASSERT_TRUE(journal.Checkpoint(50, ref).ok());
  }
  options.recover = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.watermark, 50u);
  EXPECT_EQ(recovery.snapshot.kind, SnapshotRef::Kind::kGeneration);
  EXPECT_EQ(recovery.snapshot.size, 123u);
  EXPECT_EQ(recovery.snapshot.crc, 456u);
  ASSERT_FALSE(recovery.frames.empty());
  // Frames resume exactly at the watermark and reach the end.
  EXPECT_EQ(recovery.frames.front().first_sequence, 50u);
  EXPECT_EQ(recovery.next_sequence, sequence);
  // The trimmed frames' receipts go too: receipts start at sequence 50.
  ASSERT_EQ(recovery.receipts.size(), sequence - 50);
  const Receipt expected = MakeReceipts(50, 1).front();
  EXPECT_EQ(recovery.receipts.front().customer, expected.customer);
  EXPECT_EQ(recovery.receipts.front().day, expected.day);
  EXPECT_EQ(recovery.receipts.front().spend, expected.spend);
}

TEST(JournalTest, CheckpointAtHeadDropsEverySegment) {
  const std::string dir = FreshDir("journal_truncate_all");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 8)).ok());
    SnapshotRef ref;
    ref.kind = SnapshotRef::Kind::kGeneration;
    ref.size = 7;
    ref.crc = 9;
    ASSERT_TRUE(journal.Checkpoint(journal.next_sequence(), ref).ok());
  }
  options.recover = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.watermark, 8u);
  EXPECT_TRUE(recovery.frames.empty());
  EXPECT_EQ(recovery.next_sequence, 8u);
  // The sequence space continues after the truncation.
  ASSERT_TRUE(journal.Append(8, MakeReceipts(8, 1)).ok());
}

TEST(JournalTest, CheckpointOfUnknownSnapshotKindIsDataLoss) {
  const std::string dir = FreshDir("journal_kind_one");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 4)).ok());
    SnapshotRef ref;
    ref.kind = static_cast<SnapshotRef::Kind>(1);
    ref.size = 7;
    ref.crc = 9;
    ASSERT_TRUE(journal.Checkpoint(4, ref).ok());
  }
  options.recover = true;
  JournalRecovery recovery;
  EXPECT_EQ(IngestJournal::Open(options, &recovery).status().code(),
            StatusCode::kDataLoss);
}

TEST(JournalTest, ReadOnlyScanDoesNotMutate) {
  const std::string dir = FreshDir("journal_readonly");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 4)).ok());
  }
  // Corrupt the tail by appending garbage: a read-only scan must report
  // the torn tail but leave the file bytes alone.
  const std::string segment = dir + "/seg-000000001.chlj";
  struct stat before {};
  {
    std::FILE* file = std::fopen(segment.c_str(), "ab");
    ASSERT_NE(file, nullptr);
    std::fputs("torn", file);
    std::fclose(file);
    ASSERT_EQ(::stat(segment.c_str(), &before), 0);
  }
  JournalOptions read_only = options;
  read_only.recover = true;
  read_only.read_only = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(read_only, &recovery).ValueOrDie();
  ASSERT_EQ(recovery.frames.size(), 1u);
  EXPECT_GT(recovery.discarded_tail_bytes, 0u);
  EXPECT_TRUE(journal.Append(4, MakeReceipts(4, 1)).IsFailedPrecondition());
  struct stat after {};
  ASSERT_EQ(::stat(segment.c_str(), &after), 0);
  EXPECT_EQ(before.st_size, after.st_size);

  // A writable recovery truncates the torn tail in place.
  JournalOptions writable = options;
  writable.recover = true;
  JournalRecovery repair;
  auto repaired = IngestJournal::Open(writable, &repair).ValueOrDie();
  ASSERT_EQ(::stat(segment.c_str(), &after), 0);
  EXPECT_LT(after.st_size, before.st_size);
  ASSERT_TRUE(repaired.Append(4, MakeReceipts(4, 1)).ok());
}

TEST(JournalTest, ParseFsyncPolicyRoundTrips) {
  EXPECT_EQ(ParseFsyncPolicy("always").ValueOrDie(), FsyncPolicy::kAlways);
  EXPECT_EQ(ParseFsyncPolicy("batch").ValueOrDie(), FsyncPolicy::kBatch);
  EXPECT_EQ(ParseFsyncPolicy("none").ValueOrDie(), FsyncPolicy::kNone);
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").ok());
  EXPECT_EQ(FsyncPolicyToString(FsyncPolicy::kAlways), "always");
  EXPECT_EQ(FsyncPolicyToString(FsyncPolicy::kBatch), "batch");
  EXPECT_EQ(FsyncPolicyToString(FsyncPolicy::kNone), "none");
}

// ---------------------------------------------------------------------------
// Fleet recovery: checkpoint + journal replay == uninterrupted ingest.
// ---------------------------------------------------------------------------

FleetOptions RecoveryFleetOptions() {
  FleetOptions options;
  options.scorer.window_span_days = 30;
  options.num_shards = 4;
  options.num_threads = 1;
  options.granularity = retail::Granularity::kProduct;
  options.policy.beta = 0.5;
  options.policy.warmup_windows = 1;
  return options;
}

std::string BareSnapshotOf(const ScoringFleet& fleet) {
  BinaryWriter writer;
  EXPECT_TRUE(fleet.SaveSnapshot(&writer).ok());
  return writer.buffer();
}

TEST(JournalGroupCommitTest, SyncThroughAdvancesTheDurableWatermark) {
  JournalOptions options;
  options.directory = FreshDir("journal_sync_through");
  options.fsync = FsyncPolicy::kBatch;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  EXPECT_EQ(journal.durable_sequence(), 0u);
  ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 3)).ok());
  ASSERT_TRUE(journal.Append(3, MakeReceipts(3, 2)).ok());
  // Appended, not yet durable under kBatch.
  EXPECT_EQ(journal.durable_sequence(), 0u);
  // One fsync covers every frame appended before it, not just the range
  // asked for.
  ASSERT_TRUE(journal.SyncThrough(3).ok());
  EXPECT_EQ(journal.durable_sequence(), 5u);
  ASSERT_TRUE(journal.SyncThrough(5).ok());  // already covered: no fsync
  EXPECT_TRUE(journal.sync_error().ok());
  // A range never appended cannot be made durable.
  EXPECT_EQ(journal.SyncThrough(6).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(journal.Append(5, MakeReceipts(5, 1)).ok());
  ASSERT_TRUE(journal.Sync().ok());
  EXPECT_EQ(journal.durable_sequence(), 6u);
}

TEST(JournalGroupCommitTest, PoliciesSetWhenAppendsBecomeDurable) {
  JournalOptions options;
  options.directory = FreshDir("journal_sync_always");
  options.fsync = FsyncPolicy::kAlways;
  auto always = IngestJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(always.Append(0, MakeReceipts(0, 2)).ok());
  EXPECT_EQ(always.durable_sequence(), 2u);

  options.directory = FreshDir("journal_sync_none");
  options.fsync = FsyncPolicy::kNone;
  auto none = IngestJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(none.Append(0, MakeReceipts(0, 2)).ok());
  // Nothing to wait for under kNone: the page cache is the guarantee.
  EXPECT_EQ(none.durable_sequence(), 2u);
  EXPECT_TRUE(none.SyncThrough(2).ok());
}

TEST(JournalGroupCommitTest, RotationSealsUnsyncedFramesDurably) {
  JournalOptions options;
  options.directory = FreshDir("journal_sync_rotate");
  options.fsync = FsyncPolicy::kBatch;
  options.max_segment_bytes = 64;  // every frame rotates the next one out
  auto journal = IngestJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 4)).ok());
  EXPECT_EQ(journal.durable_sequence(), 0u);
  ASSERT_TRUE(journal.Append(4, MakeReceipts(4, 4)).ok());
  // The first segment was sealed with an fsync before the second opened.
  EXPECT_EQ(journal.durable_sequence(), 4u);
  ASSERT_TRUE(journal.Sync().ok());
  EXPECT_EQ(journal.durable_sequence(), 8u);
}

TEST(JournalGroupCommitTest, ConcurrentWaitersReturnOnlyOnceDurable) {
  JournalOptions options;
  options.directory = FreshDir("journal_sync_concurrent");
  options.fsync = FsyncPolicy::kBatch;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  // One appender (the owner) and waiters syncing behind it, without the
  // appender's lock: every waiter returns only once its range is durable.
  constexpr uint64_t kFrames = 200;
  std::atomic<uint64_t> appended{0};
  std::vector<std::thread> waiters;
  std::atomic<int> violations{0};
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        const uint64_t end = appended.load();
        if (end > 0) {
          const Status synced = journal.SyncThrough(end);
          EXPECT_TRUE(synced.ok()) << synced.ToString();
          if (journal.durable_sequence() < end) violations.fetch_add(1);
        }
        if (end == kFrames * 2) break;
        std::this_thread::yield();
      }
    });
  }
  for (uint64_t frame = 0; frame < kFrames; ++frame) {
    ASSERT_TRUE(journal.Append(frame * 2, MakeReceipts(frame * 2, 2)).ok());
    appended.store(frame * 2 + 2);
  }
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(journal.durable_sequence(), kFrames * 2);
}

TEST(JournalGroupCommitTest, FailedFsyncIsStickyAndRefusesAppends) {
  FailpointRegistry::Global().DisarmAll();
  JournalOptions options;
  options.directory = FreshDir("journal_sync_fail_stop");
  options.fsync = FsyncPolicy::kBatch;
  auto journal = IngestJournal::Open(options).ValueOrDie();
  ASSERT_TRUE(journal.Append(0, MakeReceipts(0, 2)).ok());
  ASSERT_TRUE(
      FailpointRegistry::Global().ArmFromSpec("serve.journal.fsync=error")
          .ok());
  const Status failed = journal.SyncThrough(2);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_EQ(failed.code(), StatusCode::kDataLoss) << failed.ToString();
  EXPECT_EQ(journal.durable_sequence(), 0u);
  // The failpoint is disarmed, yet nothing succeeds any more: a later
  // fsync cannot vouch for pages the kernel may have dropped.
  EXPECT_EQ(journal.SyncThrough(2).code(), StatusCode::kDataLoss);
  EXPECT_EQ(journal.Sync().code(), StatusCode::kDataLoss);
  EXPECT_EQ(journal.Append(2, MakeReceipts(2, 1)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(journal.next_sequence(), 2u);
  EXPECT_EQ(journal.sync_error().code(), StatusCode::kDataLoss);
  // Recovery of what reached the disk is still clean.
  journal.Close();
  options.recover = true;
  JournalRecovery recovery;
  ASSERT_TRUE(IngestJournal::Open(options, &recovery).ok());
  EXPECT_EQ(recovery.next_sequence, 2u);
}

TEST(JournalRecoveryTest, ReplayReproducesUninterruptedStateByteForByte) {
  const std::string dir = FreshDir("journal_recovery");
  const std::string snapshot_path =
      testing::TempDir() + "/journal_recovery.gens";
  std::filesystem::remove(snapshot_path);

  // The "server": ingest 3 batches, checkpoint after the second, ingest a
  // third, then "crash" (drop the fleet without another checkpoint).
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    auto fleet =
        ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
    uint64_t sequence = 0;
    for (int batch = 0; batch < 3; ++batch) {
      const std::vector<Receipt> receipts =
          MakeReceipts(sequence, 40);
      ASSERT_TRUE(journal.Append(sequence, receipts).ok());
      ASSERT_TRUE(fleet.IngestBatch(receipts).ok());
      sequence += receipts.size();
      if (batch == 1) {
        Result<SnapshotRef> ref =
            fleet.AppendSnapshotGeneration(snapshot_path);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        ASSERT_TRUE(journal.Checkpoint(sequence, *ref).ok());
      }
    }
  }

  // The oracle: the same receipts, uninterrupted.
  auto oracle =
      ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(oracle.IngestBatch(MakeReceipts(0, 120)).ok());

  // Recovery: checkpointed generation + frames above the watermark.
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.watermark, 80u);
  EXPECT_EQ(recovery.next_sequence, 120u);
  ASSERT_EQ(recovery.frames.size(), 1u);
  Result<ScoringFleet> recovered = ScoringFleet::Recover(
      recovery, snapshot_path, RecoveryFleetOptions(), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(BareSnapshotOf(*recovered), BareSnapshotOf(oracle));
}

TEST(JournalRecoveryTest, RecoverRestoresCheckpointedGenerationNotNewest) {
  const std::string dir = FreshDir("journal_ckpt_generation");
  const std::string snapshot_path =
      testing::TempDir() + "/journal_ckpt_generation.gens";
  std::filesystem::remove(snapshot_path);

  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    auto fleet =
        ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
    const std::vector<Receipt> first = MakeReceipts(0, 30);
    ASSERT_TRUE(journal.Append(0, first).ok());
    ASSERT_TRUE(fleet.IngestBatch(first).ok());
    Result<SnapshotRef> ref = fleet.AppendSnapshotGeneration(snapshot_path);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(journal.Checkpoint(30, *ref).ok());

    // More ingest, then an ORPHAN generation: appended to the snapshot
    // file but crashed before its Checkpoint landed. Its receipts still
    // sit in the journal; restoring the orphan would double-apply them.
    const std::vector<Receipt> second = MakeReceipts(30, 25);
    ASSERT_TRUE(journal.Append(30, second).ok());
    ASSERT_TRUE(fleet.IngestBatch(second).ok());
    ASSERT_TRUE(fleet.AppendSnapshotGeneration(snapshot_path).ok());
    // crash here: no Checkpoint for the orphan
  }

  auto oracle =
      ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(oracle.IngestBatch(MakeReceipts(0, 55)).ok());

  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.watermark, 30u);
  Result<ScoringFleet> recovered = ScoringFleet::Recover(
      recovery, snapshot_path, RecoveryFleetOptions(), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(BareSnapshotOf(*recovered), BareSnapshotOf(oracle));
}

// The "server" of the by-ref lookup cases: journals receipts [0, 30),
// appends the fleet's generation to `snapshot_path` and checkpoints it,
// then journals [30, 50) with no further checkpoint. Returns the
// read-only recovery scan of the journal.
JournalRecovery JournalWithCheckpointedGeneration(
    const std::string& dir, const std::string& snapshot_path) {
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  {
    auto journal = IngestJournal::Open(options).ValueOrDie();
    auto fleet =
        ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
    const std::vector<Receipt> first = MakeReceipts(0, 30);
    EXPECT_TRUE(journal.Append(0, first).ok());
    EXPECT_TRUE(fleet.IngestBatch(first).ok());
    const SnapshotRef ref =
        fleet.AppendSnapshotGeneration(snapshot_path).ValueOrDie();
    EXPECT_TRUE(journal.Checkpoint(30, ref).ok());
    EXPECT_TRUE(journal.Append(30, MakeReceipts(30, 20)).ok());
  }
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  EXPECT_TRUE(IngestJournal::Open(options, &recovery).ok());
  return recovery;
}

TEST(JournalRecoveryTest, RecoverFindsCheckpointedGenerationPastBadNeighbours) {
  const std::string dir = FreshDir("journal_ckpt_neighbours");
  const std::string snapshot_path =
      testing::TempDir() + "/journal_ckpt_neighbours.gens";
  std::filesystem::remove(snapshot_path);

  // An earlier generation whose payload fails its CRC...
  {
    auto earlier =
        ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
    ASSERT_TRUE(earlier.IngestBatch(MakeReceipts(0, 10)).ok());
    ASSERT_TRUE(earlier.AppendSnapshotGeneration(snapshot_path).ok());
    std::fstream file(snapshot_path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(-1, std::ios::end);
    const char last = static_cast<char>(file.get());
    file.seekp(-1, std::ios::end);
    file.put(static_cast<char>(last ^ 0x01));
  }
  // ...then the checkpointed one...
  const JournalRecovery recovery =
      JournalWithCheckpointedGeneration(dir, snapshot_path);
  // ...then a torn tail: a generation header whose payload never landed.
  BinaryWriter torn;
  torn.WriteBytes("CHLFGENS", 8);
  torn.WriteVarint(4096);
  torn.WriteVarint(7);
  torn.WriteBytes("partial", 7);
  ASSERT_TRUE(torn.AppendToFile(snapshot_path).ok());

  auto oracle =
      ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(oracle.IngestBatch(MakeReceipts(0, 50)).ok());
  Result<ScoringFleet> recovered = ScoringFleet::Recover(
      recovery, snapshot_path, RecoveryFleetOptions(), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(BareSnapshotOf(*recovered), BareSnapshotOf(oracle));
}

TEST(JournalRecoveryTest, RecoverRejectsGenerationFileMissingTheCheckpoint) {
  const std::string dir = FreshDir("journal_ckpt_missing");
  const std::string snapshot_path =
      testing::TempDir() + "/journal_ckpt_missing.gens";
  std::filesystem::remove(snapshot_path);
  const JournalRecovery recovery =
      JournalWithCheckpointedGeneration(dir, snapshot_path);

  // The file is replaced by one holding only some other generation.
  std::filesystem::remove(snapshot_path);
  auto other =
      ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(other.IngestBatch(MakeReceipts(0, 10)).ok());
  ASSERT_TRUE(other.AppendSnapshotGeneration(snapshot_path).ok());

  const Result<ScoringFleet> recovered = ScoringFleet::Recover(
      recovery, snapshot_path, RecoveryFleetOptions(), nullptr);
  ASSERT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find(
                "holds no generation matching the journal checkpoint"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(JournalRecoveryTest, RecoverRejectsBareFileWhereGenerationCheckpointed) {
  const std::string dir = FreshDir("journal_ckpt_bare");
  const std::string snapshot_path =
      testing::TempDir() + "/journal_ckpt_bare.gens";
  std::filesystem::remove(snapshot_path);
  const JournalRecovery recovery =
      JournalWithCheckpointedGeneration(dir, snapshot_path);

  // A bare snapshot of the very state that was checkpointed still is not
  // the generation the checkpoint names.
  auto same =
      ScoringFleet::Make(RecoveryFleetOptions(), nullptr).ValueOrDie();
  ASSERT_TRUE(same.IngestBatch(MakeReceipts(0, 30)).ok());
  ASSERT_TRUE(same.SaveSnapshotToFile(snapshot_path).ok());

  const Result<ScoringFleet> recovered = ScoringFleet::Recover(
      recovery, snapshot_path, RecoveryFleetOptions(), nullptr);
  ASSERT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find(
                "is not the generation file the journal checkpoint "
                "references"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST(JournalRecoveryTest, FreshJournalRecoversToFreshFleet) {
  const std::string dir = FreshDir("journal_recover_fresh");
  JournalOptions options;
  options.directory = dir;
  options.fsync = FsyncPolicy::kNone;
  options.recover = true;
  JournalRecovery recovery;
  auto journal = IngestJournal::Open(options, &recovery).ValueOrDie();
  EXPECT_EQ(recovery.next_sequence, 0u);
  Result<ScoringFleet> recovered =
      ScoringFleet::Recover(recovery, "", RecoveryFleetOptions(), nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->NumCustomers(), 0u);
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
