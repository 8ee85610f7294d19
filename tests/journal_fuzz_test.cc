// Property/fuzz tests for journal durability: seeded corruption (bit
// flips, truncation, slice duplication, garbage insertion) of on-disk
// journal segments and checkpoint records. Recovery must either succeed
// with a frame list that is a contiguous, content-identical prefix of the
// pristine journal starting at the checkpoint watermark, or fail with a
// clean DataLoss — never crash, hang, or silently skip an interior frame.
// The suites run under ASan/UBSan and TSan via scripts/check_crash.sh.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/journal.h"

namespace churnlab {
namespace serve {
namespace {

using retail::CustomerId;
using retail::Day;
using retail::Receipt;

constexpr uint64_t kTotalReceipts = 60;
constexpr uint64_t kWatermark = 20;
constexpr size_t kFrameReceipts = 5;

std::vector<Receipt> PristineReceipts() {
  std::vector<Receipt> receipts;
  for (uint64_t i = 0; i < kTotalReceipts; ++i) {
    Receipt receipt;
    receipt.customer = static_cast<CustomerId>(1 + i % 9);
    receipt.day = static_cast<Day>(i / 3);
    receipt.spend = 0.5 + 0.25 * static_cast<double>(i);
    receipt.items = {static_cast<retail::ItemId>(10 + i % 4)};
    receipts.push_back(std::move(receipt));
  }
  return receipts;
}

/// Builds the pristine journal once: 12 frames of 5 receipts over several
/// small segments, checkpointed at sequence 20.
const std::string& PristineJournalDir() {
  static const std::string dir = [] {
    // Per process: ctest runs each test case as its own process, in
    // parallel, and they must not rebuild one shared directory.
    const std::string path = testing::TempDir() + "/journal_fuzz_pristine_" +
                             std::to_string(::getpid());
    std::filesystem::remove_all(path);
    JournalOptions options;
    options.directory = path;
    options.fsync = FsyncPolicy::kNone;
    options.max_segment_bytes = 160;  // several segments
    auto journal = IngestJournal::Open(options).ValueOrDie();
    const std::vector<Receipt> receipts = PristineReceipts();
    for (uint64_t first = 0; first < kTotalReceipts;
         first += kFrameReceipts) {
      const std::span<const Receipt> frame(receipts.data() + first,
                                           kFrameReceipts);
      EXPECT_TRUE(journal.Append(first, frame).ok());
      if (first + kFrameReceipts == kWatermark) {
        SnapshotRef ref;
        ref.kind = SnapshotRef::Kind::kGeneration;
        ref.size = 1234;
        ref.crc = 5678;
        EXPECT_TRUE(journal.Checkpoint(kWatermark, ref).ok());
      }
    }
    journal.Close();
    return path;
  }();
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One seeded mutation of a file's bytes: the classic torn/corrupted-file
/// shapes a crashed or bit-rotted disk produces.
std::string Mutate(const std::string& pristine, std::mt19937* rng) {
  std::string bytes = pristine;
  if (bytes.empty()) return bytes;
  std::uniform_int_distribution<int> kind_dist(0, 3);
  switch (kind_dist(*rng)) {
    case 0: {  // flip 1..8 bits
      std::uniform_int_distribution<size_t> pos_dist(0, bytes.size() - 1);
      std::uniform_int_distribution<int> bit_dist(0, 7);
      std::uniform_int_distribution<int> count_dist(1, 8);
      const int flips = count_dist(*rng);
      for (int i = 0; i < flips; ++i) {
        bytes[pos_dist(*rng)] ^= static_cast<char>(1u << bit_dist(*rng));
      }
      break;
    }
    case 1: {  // truncate (a torn write)
      std::uniform_int_distribution<size_t> len_dist(0, bytes.size() - 1);
      bytes.resize(len_dist(*rng));
      break;
    }
    case 2: {  // duplicate a slice (a replayed/doubled write)
      std::uniform_int_distribution<size_t> start_dist(0, bytes.size() - 1);
      const size_t start = start_dist(*rng);
      std::uniform_int_distribution<size_t> len_dist(
          1, bytes.size() - start);
      const size_t length = len_dist(*rng);
      std::uniform_int_distribution<size_t> at_dist(0, bytes.size());
      bytes.insert(at_dist(*rng), bytes.substr(start, length));
      break;
    }
    default: {  // insert garbage
      std::uniform_int_distribution<size_t> at_dist(0, bytes.size());
      std::uniform_int_distribution<int> len_dist(1, 24);
      std::uniform_int_distribution<int> byte_dist(0, 255);
      std::string garbage;
      for (int i = len_dist(*rng); i > 0; --i) {
        garbage.push_back(static_cast<char>(byte_dist(*rng)));
      }
      bytes.insert(at_dist(*rng), garbage);
      break;
    }
  }
  return bytes;
}

/// The durability contract, checked after every mutation: recovery either
/// yields a contiguous, content-identical prefix of the pristine stream
/// starting exactly at the watermark, or fails as DataLoss. A sequence
/// gap — an interior frame silently skipped — is never acceptable.
void CheckRecoveryContract(const std::string& dir) {
  JournalOptions options;
  options.directory = dir;
  options.recover = true;
  options.read_only = true;
  JournalRecovery recovery;
  const Result<IngestJournal> journal =
      IngestJournal::Open(options, &recovery);
  if (!journal.ok()) {
    EXPECT_TRUE(journal.status().IsDataLoss())
        << "recovery failed with a non-DataLoss status: "
        << journal.status().ToString();
    return;
  }
  const std::vector<Receipt> pristine = PristineReceipts();
  // Watermark may differ from kWatermark only if the checkpoint itself
  // was the mutated file — in which case recovery either failed above or
  // the record still parsed (rename-atomicity means a *real* crash never
  // tears it; a fuzz flip that keeps the CRC valid is astronomically
  // unlikely). Frames must resume exactly at whatever watermark was read.
  uint64_t expected = recovery.watermark;
  for (size_t k = 0; k < recovery.frames.size(); ++k) {
    const JournalFrame& frame = recovery.frames[k];
    ASSERT_EQ(frame.first_sequence, expected)
        << "recovery skipped interior sequences";
    ASSERT_LE(frame.end_sequence(), kTotalReceipts)
        << "recovery invented receipts past the pristine stream";
    const std::span<const Receipt> receipts = recovery.FrameReceipts(k);
    for (size_t i = 0; i < receipts.size(); ++i) {
      const Receipt& got = receipts[i];
      const Receipt& want = pristine[frame.first_sequence + i];
      ASSERT_EQ(got.customer, want.customer);
      ASSERT_EQ(got.day, want.day);
      ASSERT_EQ(got.spend, want.spend);
      ASSERT_EQ(got.items, want.items);
    }
    expected = frame.end_sequence();
  }
  EXPECT_EQ(recovery.receipts.size(), expected - recovery.watermark);
  EXPECT_EQ(recovery.next_sequence, expected == recovery.watermark
                                        ? recovery.next_sequence
                                        : expected);
}

TEST(JournalFuzzTest, CorruptedSegmentsRecoverAtPrefixOrFailCleanly) {
  const std::string pristine_dir = PristineJournalDir();
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(pristine_dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);  // several segments + checkpoint

  const std::string work_dir = testing::TempDir() + "/journal_fuzz_work";
  for (uint32_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    std::filesystem::remove_all(work_dir);
    std::filesystem::copy(pristine_dir, work_dir);
    // Mutate one file (usually) or two (sometimes): crashes corrupt the
    // tail; fuzzing corrupts anywhere.
    std::uniform_int_distribution<size_t> file_dist(0, files.size() - 1);
    std::uniform_int_distribution<int> double_dist(0, 3);
    const int mutations = double_dist(rng) == 0 ? 2 : 1;
    for (int i = 0; i < mutations; ++i) {
      const std::string path = work_dir + "/" + files[file_dist(rng)];
      WriteFile(path, Mutate(ReadFile(path), &rng));
    }
    CheckRecoveryContract(work_dir);
  }
}

TEST(JournalFuzzTest, WholeFileDeletionRecoversOrFailsCleanly) {
  const std::string pristine_dir = PristineJournalDir();
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(pristine_dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  const std::string work_dir = testing::TempDir() + "/journal_fuzz_delete";
  for (const std::string& victim : files) {
    SCOPED_TRACE("deleting " + victim);
    std::filesystem::remove_all(work_dir);
    std::filesystem::copy(pristine_dir, work_dir);
    std::filesystem::remove(work_dir + "/" + victim);
    CheckRecoveryContract(work_dir);
  }
}

TEST(JournalFuzzTest, DuplicatedWholeFrameIsNeverSilentlyReplayed) {
  // Append the final frame's exact bytes a second time: the duplicate
  // starts at an already-consumed sequence, which recovery must reject
  // (DataLoss) or discard as tail — never replay twice.
  const std::string pristine_dir = PristineJournalDir();
  const std::string work_dir = testing::TempDir() + "/journal_fuzz_dup";
  std::filesystem::remove_all(work_dir);
  std::filesystem::copy(pristine_dir, work_dir);
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".chlj" &&
        (newest.empty() || name > newest)) {
      newest = name;
    }
  }
  ASSERT_FALSE(newest.empty());
  const std::string path = work_dir + "/" + newest;
  std::string bytes = ReadFile(path);
  // The last frame: scan from the header to find its start offset is
  // overkill — duplicating the whole file body after the header achieves
  // the same "replayed frames" shape.
  WriteFile(path, bytes + bytes.substr(10));
  CheckRecoveryContract(work_dir);
}

}  // namespace
}  // namespace serve
}  // namespace churnlab
