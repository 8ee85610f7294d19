#ifndef CHURNLAB_SERVE_JOURNAL_H_
#define CHURNLAB_SERVE_JOURNAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "retail/types.h"

namespace churnlab {
namespace serve {

/// \file
/// Durable write-ahead ingest journal (docs/ROBUSTNESS.md §Durability).
///
/// The HTTP front end must never acknowledge an ingest it can lose: every
/// coalesced batch is appended to the journal — tagged with its contiguous
/// receipt-sequence range — *before* the fleet applies it or the response
/// is sent. After a crash, ScoringFleet::Recover restores the checkpointed
/// snapshot and replays journal frames above the checkpoint watermark in
/// sequence order, reproducing the pre-crash state byte-for-byte (arrival
/// sequence fully determines fleet state; batch boundaries do not).
///
/// On-disk layout under JournalOptions::directory (docs/API.md):
///
///   seg-000000001.chlj    segment: "CHLJSEG1" magic, varint version,
///   seg-000000002.chlj    varint segment number, then frames
///   journal.ckpt          checkpoint: "CHLJCKPT" magic, varint version,
///                         watermark + snapshot reference (tmp + rename)
///
/// Each frame is [varint payload size, varint CRC32, payload] where the
/// payload serializes (first_sequence, receipts). A torn or CRC-failing
/// tail — a crash mid-append — is cleanly discarded on recovery; any other
/// corruption (an interior frame, a sequence gap) is a hard DataLoss error,
/// never a silent skip. The recovery scan CRC-checks and decodes frames on
/// every core, then settles these decisions in frame order.

/// When appended frames are flushed to stable storage.
enum class FsyncPolicy {
  /// fsync after every Append, before the append returns. An acknowledged
  /// batch survives power loss; highest latency.
  kAlways,
  /// Group commit (IngestJournal::SyncThrough): a round waits, after the
  /// fleet applied it and before any of its responses are sent, for one
  /// fsync that covers its frame. One fsync covers every round appended
  /// before it, so concurrent rounds share it ("batch-ack"): acknowledged
  /// receipts still never outlive a crash.
  kBatch,
  /// Never fsync. Survives process death (the page cache is the kernel's)
  /// but not power loss. For tests and throughput benchmarks.
  kNone,
};

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text);
std::string_view FsyncPolicyToString(FsyncPolicy policy);

struct JournalOptions {
  /// Directory holding segments and the checkpoint; created if missing.
  std::string directory;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Rotate the active segment once it exceeds this many bytes.
  uint64_t max_segment_bytes = 64ull << 20;
  /// Permit opening a journal that already holds frames (their scan is
  /// returned through the JournalRecovery out-parameter). Without this,
  /// opening a non-empty journal fails with FailedPrecondition so a fresh
  /// server cannot silently shadow recoverable state.
  bool recover = false;
  /// Scan without mutating: no tail truncation, no append descriptor, and
  /// Append/Sync/Checkpoint fail. For offline inspection and the oracle
  /// tooling (serve-replay --recover).
  bool read_only = false;
};

/// Reference to the snapshot a checkpoint corresponds to. The checkpoint
/// names the *exact* bytes (size + CRC32 of the bare snapshot payload), so
/// recovery restores the checkpointed generation — never a newer orphan
/// generation whose receipts still sit in the un-truncated journal (which
/// would double-apply them).
struct SnapshotRef {
  /// The values are the on-disk encoding; a checkpoint record holding any
  /// other value, 1 included, is rejected as corruption.
  enum class Kind : uint8_t {
    kNone = 0,        ///< checkpoint without a snapshot (watermark 0 only)
    kGeneration = 2,  ///< one generation of an append-mode "CHLFGENS" file
  };
  Kind kind = Kind::kNone;
  /// Size and CRC32 of the bare snapshot payload bytes.
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// One replayable journal record: a coalesced batch's first receipt
/// sequence number and receipt count. Its receipts sit in
/// JournalRecovery::receipts (see JournalRecovery::FrameReceipts).
struct JournalFrame {
  uint64_t first_sequence = 0;
  size_t count = 0;
  /// One past the last sequence number covered by this frame.
  uint64_t end_sequence() const { return first_sequence + count; }
};

/// What IngestJournal::Open found on disk (all zero/empty for a fresh
/// journal). `frames` and `receipts` hold every intact frame above the
/// watermark, in sequence order, ready for ScoringFleet::Recover.
struct JournalRecovery {
  /// Next-sequence watermark of the last checkpoint: every receipt with
  /// sequence < watermark is captured by the checkpointed snapshot.
  uint64_t watermark = 0;
  /// The snapshot the checkpoint corresponds to (kind kNone when the
  /// journal has never been checkpointed against a snapshot).
  SnapshotRef snapshot;
  /// Intact frames above the watermark, contiguous in sequence.
  std::vector<JournalFrame> frames;
  /// The frames' receipts in one vector, in sequence order: receipts[i]
  /// has sequence frames.front().first_sequence + i. Decoded in place by
  /// the scan, so replay reads them without a copy.
  std::vector<retail::Receipt> receipts;
  /// The receipts of frames[k].
  std::span<const retail::Receipt> FrameReceipts(size_t k) const {
    return std::span<const retail::Receipt>(receipts).subspan(
        frames[k].first_sequence - frames.front().first_sequence,
        frames[k].count);
  }
  /// One past the highest recovered sequence (== watermark when no frames
  /// survive it). Appending resumes here.
  uint64_t next_sequence = 0;
  uint64_t segments_scanned = 0;
  uint64_t frames_scanned = 0;
  /// Torn / CRC-failing tail frames discarded from the newest segment.
  uint64_t discarded_tail_frames = 0;
  uint64_t discarded_tail_bytes = 0;
  /// Wall time of the scan (framing, parallel decode, settling), for the
  /// recovery log events.
  double scan_ms = 0.0;
};

/// \brief Append-only, CRC-framed, generation-numbered write-ahead journal
/// of coalesced ingest batches.
///
/// The owner (net::FleetBackend) serializes Append / Sync / Checkpoint
/// behind its operation mutex, which is also what makes the checkpoint
/// watermark exact — a checkpoint never races an append. SyncThrough and
/// durable_sequence are the exceptions: they are safe without that mutex,
/// so a round can wait for its fsync while the next round appends.
///
/// Group commit: a sync mutex elects one fsync leader at a time. The
/// leader captures the appended sequence and the active segment's
/// descriptor, runs fsync with no lock held, then publishes the durable
/// watermark; every waiter whose range it covers returns without an fsync
/// of its own. The first fsync failure is sticky (fail-stop): after EIO the
/// kernel may have dropped the dirty pages, so no later "successful" fsync
/// proves anything. From then on every SyncThrough and Append fails with
/// DataLoss until the process restarts and recovers.
///
/// Failpoint sites (docs/ROBUSTNESS.md): serve.journal.append (key = the
/// frame's first sequence; corrupt-bytes flips a bit of the on-disk frame
/// after its CRC was computed), serve.journal.fsync, and
/// serve.journal.checkpoint (before the checkpoint record is renamed into
/// place). The *abort* action at these sites is how check_crash.sh kills
/// the process at exact durability boundaries.
class IngestJournal {
 public:
  /// Opens (creating the directory if needed) and scans the journal. The
  /// scan's findings land in `*recovery` (pass nullptr to require an empty
  /// journal regardless of options.recover). See JournalOptions::recover
  /// for the fresh-open safety check.
  static Result<IngestJournal> Open(JournalOptions options,
                                    JournalRecovery* recovery = nullptr);

  IngestJournal(IngestJournal&& other) noexcept;
  IngestJournal& operator=(IngestJournal&& other) noexcept;
  IngestJournal(const IngestJournal&) = delete;
  IngestJournal& operator=(const IngestJournal&) = delete;
  ~IngestJournal();

  /// Appends one coalesced batch as a single frame. `first_sequence` must
  /// equal next_sequence() — the journal enforces the contiguity it later
  /// relies on during recovery. Durable on return under FsyncPolicy::kAlways.
  /// After a failed fsync it fails with the sticky DataLoss, writing
  /// nothing.
  Status Append(uint64_t first_sequence,
                std::span<const retail::Receipt> receipts);

  /// Blocks until every frame below `end_sequence` is on stable storage,
  /// running or joining one group fsync. Returns at once when the durable
  /// watermark already covers `end_sequence` and under FsyncPolicy::kNone.
  /// `end_sequence` must not exceed the appended sequence. Safe to call
  /// without the owner's operation mutex.
  Status SyncThrough(uint64_t end_sequence);

  /// SyncThrough(next_sequence()): flushes everything appended so far.
  Status Sync();

  /// The sticky fsync failure (DataLoss), or OK while the journal is
  /// healthy. Safe to call without the owner's operation mutex.
  Status sync_error() const;

  /// Records that every sequence below `watermark` is durably captured by
  /// the snapshot `ref` refers to, then drops journal segments that hold
  /// only sequences below the watermark (rotating the active segment first
  /// when it is fully covered). The checkpoint record is written
  /// tmp + fsync + rename + directory fsync, so it is either the old or the
  /// new checkpoint — never a torn one.
  Status Checkpoint(uint64_t watermark, const SnapshotRef& ref);

  /// Sequence number the next Append must carry.
  uint64_t next_sequence() const {
    return next_sequence_.load(std::memory_order_acquire);
  }

  /// One past the last sequence known to be on stable storage (under
  /// FsyncPolicy::kNone: one past the last appended sequence). Safe to
  /// call without the owner's operation mutex.
  uint64_t durable_sequence() const {
    return sync_->durable.load(std::memory_order_acquire);
  }

  const JournalOptions& options() const { return options_; }

  /// Closes descriptors early (also done by the destructor). Does not
  /// fsync: callers that need durability call Sync first.
  void Close();

 private:
  explicit IngestJournal(JournalOptions options);

  std::string SegmentPath(uint64_t segment) const;
  Status OpenActiveSegment(uint64_t segment, uint64_t expected_size);
  Status RotateSegment();
  /// Runs one group fsync as the leader. Called with `lock` (on
  /// sync_->mutex) held and no fsync in progress; unlocks around the fsync.
  Status LeadSync(std::unique_lock<std::mutex>* lock);
  /// Advances the durable watermark and its gauge (sync_->mutex held).
  void PublishDurable(uint64_t end_sequence);
  Status WriteCheckpointRecord(uint64_t watermark, const SnapshotRef& ref);
  Status SyncDirectory();

  /// Group-commit state, shared between the appending owner and threads
  /// waiting in SyncThrough. Heap-held so the journal stays movable.
  struct SyncState {
    std::mutex mutex;
    std::condition_variable cv;
    /// An fsync leader is running (guarded by mutex).
    bool in_progress = false;
    /// First fsync failure, as DataLoss; sticky (guarded by mutex).
    Status error;
    /// Frames appended / frames made durable, for rounds_per_fsync
    /// (guarded by mutex).
    uint64_t appended_frames = 0;
    uint64_t synced_frames = 0;
    std::atomic<uint64_t> durable{0};
  };

  JournalOptions options_;
  /// Number of the active (newest) segment; 0 before the first append of a
  /// fresh journal (the first segment is seg-000000001).
  uint64_t active_segment_ = 0;
  /// Append descriptor of the active segment. Replaced only by
  /// RotateSegment with sync_->mutex held and no fsync in progress, so an
  /// fsync leader's captured descriptor stays open.
  int fd_ = -1;
  int dir_fd_ = -1;  ///< directory descriptor for durable renames/unlinks
  uint64_t active_segment_bytes_ = 0;
  /// Written by Append under sync_->mutex once the frame's bytes are
  /// written, so an fsync leader never claims a frame it has not seen.
  std::atomic<uint64_t> next_sequence_{0};
  bool active_segment_has_frames_ = false;
  /// Oldest segment still on disk (1-based; == active when only one).
  uint64_t oldest_segment_ = 0;
  /// End sequence (exclusive) of every retained, non-active segment, by
  /// segment number: Checkpoint unlinks a segment only when its whole
  /// range is below the watermark.
  std::vector<std::pair<uint64_t, uint64_t>> sealed_segment_ends_;
  std::unique_ptr<SyncState> sync_ = std::make_unique<SyncState>();
};

}  // namespace serve
}  // namespace churnlab

#endif  // CHURNLAB_SERVE_JOURNAL_H_
