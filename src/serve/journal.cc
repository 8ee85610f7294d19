#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/structured_log.h"
#include "obs/trace.h"

namespace churnlab {
namespace serve {

namespace {

/// Segment header magic. The trailing '1' doubles as the format version a
/// human sees in hexdumps; the varint version after it is what code checks.
constexpr char kSegmentMagic[] = "CHLJSEG1";
constexpr char kCheckpointMagic[] = "CHLJCKPT";
constexpr size_t kJournalMagicSize = 8;
constexpr uint64_t kJournalVersion = 1;
constexpr char kCheckpointName[] = "journal.ckpt";
constexpr char kCheckpointTmpName[] = "journal.ckpt.tmp";

/// Sanity bounds on untrusted on-disk counts, well above anything the
/// coalescer produces but small enough to stop a corrupted varint from
/// sizing an allocation.
constexpr uint64_t kMaxFrameReceipts = 1ull << 24;
constexpr uint64_t kMaxReceiptItems = 1ull << 20;

struct JournalMetrics {
  obs::Counter* appended_frames;
  obs::Counter* appended_bytes;
  obs::Counter* checkpoints;
  obs::Counter* truncated_segments;
  obs::Counter* recovered_frames;
  obs::Counter* recovered_receipts;
  obs::Counter* discarded_tail_frames;
  obs::Histogram* fsync_us;
  obs::Histogram* rounds_per_fsync;
  obs::Gauge* durable_sequence;
};

const JournalMetrics& Metrics() {
  static const JournalMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return JournalMetrics{
        registry.GetCounter("churnlab.journal.appended_frames"),
        registry.GetCounter("churnlab.journal.appended_bytes"),
        registry.GetCounter("churnlab.journal.checkpoints"),
        registry.GetCounter("churnlab.journal.truncated_segments"),
        registry.GetCounter("churnlab.journal.recovered_frames"),
        registry.GetCounter("churnlab.journal.recovered_receipts"),
        registry.GetCounter("churnlab.journal.discarded_tail_frames"),
        registry.GetHistogram("churnlab.journal.fsync_us",
                              obs::HistogramOptions::ExponentialLatency()),
        registry.GetHistogram("churnlab.journal.rounds_per_fsync",
                              obs::HistogramOptions::ExponentialLatency()),
        registry.GetGauge("churnlab.journal.durable_sequence"),
    };
  }();
  return metrics;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

/// write(2) the whole buffer, riding out EINTR and short writes.
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("cannot write journal", path);
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  obs::ScopedLatency latency(Metrics().fsync_us);
  if (::fsync(fd) != 0) return ErrnoStatus("cannot fsync", path);
  return Status::OK();
}

/// Serializes one frame payload: the batch's first sequence number, then
/// the receipts.
void WriteFramePayload(uint64_t first_sequence,
                       std::span<const retail::Receipt> receipts,
                       BinaryWriter* payload) {
  payload->WriteVarint(first_sequence);
  payload->WriteVarint(receipts.size());
  for (const retail::Receipt& receipt : receipts) {
    payload->WriteVarint(receipt.customer);
    payload->WriteSignedVarint(receipt.day);
    payload->WriteDouble(receipt.spend);
    payload->WriteVarint(receipt.items.size());
    for (const retail::ItemId item : receipt.items) {
      payload->WriteVarint(item);
    }
  }
}

/// Fewest payload bytes one receipt takes: one-byte customer, day and item
/// count varints plus the 8-byte spend.
constexpr size_t kMinReceiptBytes = 11;

/// One frame as the decode pass sees it: its header, read before its CRC
/// is checked, and the outcome of checking and decoding it.
struct FrameHeader {
  Status status;  ///< the first CRC, header or receipt error
  JournalFrame frame;
  /// Receipt slots reserved in JournalRecovery::receipts: the claimed count,
  /// capped at what the payload's bytes can hold, so a header that lies
  /// cannot size slots its bytes could not fill (ParseFrameReceipts fails a
  /// frame that claims more before it writes past them).
  size_t slots = 0;
  size_t body_offset = 0;  ///< payload bytes taken by the header
};

/// Reads a frame's header: the batch's first sequence number and receipt
/// count.
FrameHeader ReadFrameHeader(std::string_view payload) {
  FrameHeader header;
  BinaryReader reader = BinaryReader::Over(payload);
  header.status = [&]() -> Status {
    CHURNLAB_ASSIGN_OR_RETURN(header.frame.first_sequence, reader.ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t count, reader.ReadVarint());
    if (count > kMaxFrameReceipts) {
      return Status::IOError("journal frame receipt count is implausible");
    }
    header.frame.count = count;
    return Status::OK();
  }();
  header.body_offset = payload.size() - reader.remaining();
  if (header.status.ok()) {
    header.slots = std::min<size_t>(header.frame.count,
                                    reader.remaining() / kMinReceiptBytes);
  }
  return header;
}

/// Decodes the frame's `count` receipts from `body` (the payload after its
/// header) into `out`, which holds the frame's slots.
Status ParseFrameReceipts(std::string_view body, uint64_t count,
                          std::span<retail::Receipt> out) {
  BinaryReader reader = BinaryReader::Over(body);
  for (uint64_t i = 0; i < count; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t customer, reader.ReadVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const int64_t day, reader.ReadSignedVarint());
    CHURNLAB_ASSIGN_OR_RETURN(const double spend, reader.ReadDouble());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t items, reader.ReadVarint());
    if (items > kMaxReceiptItems) {
      return Status::IOError("journal receipt item count is implausible");
    }
    // Reading the receipt already failed if the slots, sized by the
    // fewest bytes a receipt takes, ran out; this keeps the write in
    // bounds should the encoding change.
    if (i >= out.size()) {
      return Status::IOError(
          "journal frame claims more receipts than its payload holds");
    }
    retail::Receipt& receipt = out[i];
    receipt.customer = static_cast<retail::CustomerId>(customer);
    receipt.day = static_cast<retail::Day>(day);
    receipt.spend = spend;
    receipt.items.reserve(items);
    for (uint64_t j = 0; j < items; ++j) {
      CHURNLAB_ASSIGN_OR_RETURN(const uint64_t item, reader.ReadVarint());
      receipt.items.push_back(static_cast<retail::ItemId>(item));
    }
  }
  if (!reader.AtEnd()) {
    return Status::IOError("journal frame payload has trailing bytes");
  }
  return Status::OK();
}

/// Parses the checkpoint record. The record is tiny and renamed into place
/// atomically, so any parse or CRC failure means real corruption: DataLoss.
Status ParseCheckpoint(const std::string& path, uint64_t* watermark,
                       SnapshotRef* ref) {
  CHURNLAB_ASSIGN_OR_RETURN(BinaryReader reader,
                            BinaryReader::OpenFile(path));
  const Status bad =
      Status::DataLoss("journal checkpoint '" + path + "' is corrupted");
  Result<std::string> magic = reader.ReadBytes(kJournalMagicSize);
  if (!magic.ok() ||
      *magic != std::string_view(kCheckpointMagic, kJournalMagicSize)) {
    return bad;
  }
  const Result<uint64_t> size = reader.ReadVarint();
  if (!size.ok()) return bad;
  const Result<uint64_t> crc = reader.ReadVarint();
  if (!crc.ok()) return bad;
  Result<std::string> payload = reader.ReadBytes(*size);
  if (!payload.ok() || !reader.AtEnd() ||
      Crc32(payload->data(), payload->size()) != *crc) {
    return bad;
  }
  BinaryReader body(std::move(*payload));
  const Result<uint64_t> version = body.ReadVarint();
  if (!version.ok() || *version != kJournalVersion) return bad;
  const Result<uint64_t> mark = body.ReadVarint();
  const Result<uint64_t> kind = body.ReadVarint();
  const Result<uint64_t> snapshot_size = body.ReadVarint();
  const Result<uint64_t> snapshot_crc = body.ReadVarint();
  if (!mark.ok() || !kind.ok() || !snapshot_size.ok() ||
      !snapshot_crc.ok() || !body.AtEnd() ||
      (*kind != static_cast<uint64_t>(SnapshotRef::Kind::kNone) &&
       *kind != static_cast<uint64_t>(SnapshotRef::Kind::kGeneration))) {
    return bad;
  }
  *watermark = *mark;
  ref->kind = static_cast<SnapshotRef::Kind>(*kind);
  ref->size = *snapshot_size;
  ref->crc = static_cast<uint32_t>(*snapshot_crc);
  return Status::OK();
}

struct SegmentFile {
  uint64_t number = 0;
  std::string path;
};

/// One frame as the framing pass found it, before its CRC check: the
/// payload is a view into its segment's bytes.
struct RawFrame {
  std::string_view payload;
  uint64_t crc = 0;
  uint64_t end = 0;  ///< byte offset just past the frame in its segment
};

/// One segment after the framing pass. `bytes` owns the buffer the frames'
/// payloads view.
struct FramedSegment {
  BinaryReader bytes = BinaryReader::Over({});
  uint64_t total = 0;       ///< file size
  uint64_t header_end = 0;  ///< byte offset of the first frame
  std::vector<RawFrame> frames;
  /// Why framing stopped short of the end of the file (a truncated size
  /// or CRC varint, or a size running past the end); OK when it did not.
  Status framing;
};

/// Reads and frames one segment: checks its header, then walks the
/// [size, crc, payload] frames without checking or copying payloads.
/// Errors are the ones a frame-by-frame scan meets before any frame.
Result<FramedSegment> FrameSegment(const SegmentFile& segment) {
  FramedSegment framed;
  CHURNLAB_ASSIGN_OR_RETURN(framed.bytes,
                            BinaryReader::OpenFile(segment.path));
  BinaryReader& reader = framed.bytes;
  framed.total = reader.remaining();
  const auto offset = [&] { return framed.total - reader.remaining(); };
  const Status bad_header = Status::DataLoss(
      "journal segment '" + segment.path + "' has a corrupted header");
  const Result<std::string_view> magic = reader.ReadView(kJournalMagicSize);
  if (!magic.ok() ||
      *magic != std::string_view(kSegmentMagic, kJournalMagicSize)) {
    return bad_header;
  }
  const Result<uint64_t> version = reader.ReadVarint();
  if (!version.ok() || *version != kJournalVersion) return bad_header;
  const Result<uint64_t> number = reader.ReadVarint();
  if (!number.ok() || *number != segment.number) return bad_header;
  framed.header_end = offset();
  while (!reader.AtEnd()) {
    const Result<uint64_t> size = reader.ReadVarint();
    const Result<uint64_t> crc =
        size.ok() ? reader.ReadVarint() : Result<uint64_t>(size.status());
    if (!crc.ok()) {
      framed.framing = crc.status();
      break;
    }
    const Result<std::string_view> payload = reader.ReadView(*size);
    if (!payload.ok()) {
      framed.framing = payload.status();
      break;
    }
    framed.frames.push_back({*payload, *crc, offset()});
  }
  return framed;
}

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view text) {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "batch") return FsyncPolicy::kBatch;
  if (text == "none") return FsyncPolicy::kNone;
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(text) +
                                 "' (want always|batch|none)");
}

std::string_view FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kNone:
      return "none";
  }
  return "unknown";
}

IngestJournal::IngestJournal(JournalOptions options)
    : options_(std::move(options)) {}

IngestJournal::IngestJournal(IngestJournal&& other) noexcept
    : options_(std::move(other.options_)),
      active_segment_(other.active_segment_),
      fd_(other.fd_),
      dir_fd_(other.dir_fd_),
      active_segment_bytes_(other.active_segment_bytes_),
      next_sequence_(other.next_sequence()),
      active_segment_has_frames_(other.active_segment_has_frames_),
      oldest_segment_(other.oldest_segment_),
      sealed_segment_ends_(std::move(other.sealed_segment_ends_)),
      sync_(std::move(other.sync_)) {
  other.fd_ = -1;
  other.dir_fd_ = -1;
}

IngestJournal& IngestJournal::operator=(IngestJournal&& other) noexcept {
  if (this != &other) {
    Close();
    options_ = std::move(other.options_);
    active_segment_ = other.active_segment_;
    fd_ = other.fd_;
    dir_fd_ = other.dir_fd_;
    active_segment_bytes_ = other.active_segment_bytes_;
    next_sequence_.store(other.next_sequence(), std::memory_order_release);
    active_segment_has_frames_ = other.active_segment_has_frames_;
    oldest_segment_ = other.oldest_segment_;
    sealed_segment_ends_ = std::move(other.sealed_segment_ends_);
    sync_ = std::move(other.sync_);
    other.fd_ = -1;
    other.dir_fd_ = -1;
  }
  return *this;
}

IngestJournal::~IngestJournal() { Close(); }

void IngestJournal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
  }
}

std::string IngestJournal::SegmentPath(uint64_t segment) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%09llu.chlj",
                static_cast<unsigned long long>(segment));
  return options_.directory + "/" + name;
}

Status IngestJournal::SyncDirectory() {
  if (options_.fsync == FsyncPolicy::kNone || dir_fd_ < 0) {
    return Status::OK();
  }
  if (::fsync(dir_fd_) != 0) {
    return ErrnoStatus("cannot fsync journal directory", options_.directory);
  }
  return Status::OK();
}

Status IngestJournal::OpenActiveSegment(uint64_t segment,
                                        uint64_t expected_size) {
  const std::string path = SegmentPath(segment);
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return ErrnoStatus("cannot reopen journal segment", path);
  fd_ = fd;
  active_segment_ = segment;
  active_segment_bytes_ = expected_size;
  return Status::OK();
}

Status IngestJournal::RotateSegment() {
  // The descriptor swap happens under the sync mutex with no fsync in
  // flight, so no group-commit leader is left holding a closed descriptor.
  std::unique_lock<std::mutex> lock(sync_->mutex);
  sync_->cv.wait(lock, [this] { return !sync_->in_progress; });
  if (!sync_->error.ok()) return sync_->error;
  if (fd_ >= 0) {
    // Seal the outgoing segment: flush it (advancing the durable
    // watermark, so every unsynced frame lives in the new segment), and
    // remember its end sequence so Checkpoint knows when it may be
    // unlinked.
    if (durable_sequence() < next_sequence() &&
        options_.fsync != FsyncPolicy::kNone) {
      CHURNLAB_RETURN_NOT_OK(LeadSync(&lock));
    }
    ::close(fd_);
    fd_ = -1;
    sealed_segment_ends_.emplace_back(active_segment_, next_sequence());
  }
  const uint64_t segment = active_segment_ + 1;
  const std::string path = SegmentPath(segment);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("cannot create journal segment", path);
  BinaryWriter header;
  header.WriteBytes(kSegmentMagic, kJournalMagicSize);
  header.WriteVarint(kJournalVersion);
  header.WriteVarint(segment);
  const Status written =
      WriteAll(fd, header.buffer().data(), header.buffer().size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  fd_ = fd;
  active_segment_ = segment;
  active_segment_bytes_ = header.buffer().size();
  active_segment_has_frames_ = false;
  if (oldest_segment_ == 0) oldest_segment_ = segment;
  lock.unlock();
  // Make the new directory entry durable before frames land in it.
  return SyncDirectory();
}

Status IngestJournal::Append(uint64_t first_sequence,
                             std::span<const retail::Receipt> receipts) {
  if (options_.read_only) {
    return Status::FailedPrecondition("journal is open read-only");
  }
  {
    // Fail-stop: nothing is appended after a failed fsync.
    std::lock_guard<std::mutex> lock(sync_->mutex);
    if (!sync_->error.ok()) return sync_->error;
  }
  if (first_sequence != next_sequence()) {
    return Status::InvalidArgument(
        "journal append out of sequence: frame starts at " +
        std::to_string(first_sequence) + ", journal expects " +
        std::to_string(next_sequence()));
  }
  if (receipts.empty()) return Status::OK();
  if (fd_ < 0 || active_segment_bytes_ >= options_.max_segment_bytes) {
    CHURNLAB_RETURN_NOT_OK(RotateSegment());
  }
  BinaryWriter payload;
  WriteFramePayload(first_sequence, receipts, &payload);
  BinaryWriter frame;
  frame.WriteVarint(payload.buffer().size());
  frame.WriteVarint(Crc32(payload.buffer().data(), payload.buffer().size()));
  frame.WriteBytes(payload.buffer().data(), payload.buffer().size());
  std::string bytes = frame.buffer();
  // The failpoint fires after the CRC was computed from the pristine
  // payload: corrupt-bytes models a torn/bit-rotted on-disk frame recovery
  // must detect, abort models a crash landing exactly before the write.
  static Failpoint* const append_failpoint =
      FailpointRegistry::Global().Get("serve.journal.append");
  if (append_failpoint->armed()) {
    CHURNLAB_RETURN_NOT_OK(
        append_failpoint->CorruptBytes(&bytes, first_sequence));
  }
  const std::string path = SegmentPath(active_segment_);
  CHURNLAB_RETURN_NOT_OK(WriteAll(fd_, bytes.data(), bytes.size(), path));
  active_segment_bytes_ += bytes.size();
  active_segment_has_frames_ = true;
  const uint64_t end_sequence = first_sequence + receipts.size();
  {
    // Publish the frame only now that its bytes are written: an fsync
    // leader that captures end_sequence covers them.
    std::lock_guard<std::mutex> lock(sync_->mutex);
    next_sequence_.store(end_sequence, std::memory_order_release);
    ++sync_->appended_frames;
    if (options_.fsync == FsyncPolicy::kNone) PublishDurable(end_sequence);
  }
  Metrics().appended_frames->Increment();
  Metrics().appended_bytes->Increment(bytes.size());
  if (options_.fsync == FsyncPolicy::kAlways) {
    return SyncThrough(end_sequence);
  }
  return Status::OK();
}

Status IngestJournal::Sync() { return SyncThrough(next_sequence()); }

Status IngestJournal::SyncThrough(uint64_t end_sequence) {
  if (options_.read_only) {
    return Status::FailedPrecondition("journal is open read-only");
  }
  if (options_.fsync == FsyncPolicy::kNone) return Status::OK();
  std::unique_lock<std::mutex> lock(sync_->mutex);
  if (end_sequence > next_sequence()) {
    return Status::InvalidArgument(
        "cannot sync through sequence " + std::to_string(end_sequence) +
        ": the journal has appended only up to " +
        std::to_string(next_sequence()));
  }
  for (;;) {
    if (!sync_->error.ok()) return sync_->error;
    if (durable_sequence() >= end_sequence) return Status::OK();
    if (!sync_->in_progress) break;
    // Join the fsync in flight; if it does not cover end_sequence, the
    // next pass leads one that does.
    sync_->cv.wait(lock);
  }
  return LeadSync(&lock);
}

Status IngestJournal::LeadSync(std::unique_lock<std::mutex>* lock) {
  SyncState& sync = *sync_;
  sync.in_progress = true;
  // Everything appended so far sits in the active segment (rotation seals
  // the old one first), so one fsync of its descriptor covers it all.
  const uint64_t target = next_sequence();
  const uint64_t frames = sync.appended_frames;
  const int fd = fd_;
  const std::string path = SegmentPath(active_segment_);
  lock->unlock();
  const Status status = [&]() -> Status {
    CHURNLAB_FAILPOINT("serve.journal.fsync");
    return FsyncFd(fd, path);
  }();
  lock->lock();
  sync.in_progress = false;
  if (status.ok()) {
    Metrics().rounds_per_fsync->Record(
        static_cast<double>(frames - sync.synced_frames));
    sync.synced_frames = frames;
    PublishDurable(target);
  } else {
    sync.error = Status::DataLoss(
        "journal fsync failed; refusing ingests until the server restarts "
        "and recovers: " + status.message());
    obs::LogEvent(LogLevel::kError, "journal_fail_stop", __FILE__, __LINE__)
        .Str("segment", path)
        .Uint("durable_sequence", durable_sequence())
        .Str("reason", status.ToString());
  }
  sync.cv.notify_all();
  return sync.error;
}

Status IngestJournal::sync_error() const {
  std::lock_guard<std::mutex> lock(sync_->mutex);
  return sync_->error;
}

void IngestJournal::PublishDurable(uint64_t end_sequence) {
  sync_->durable.store(end_sequence, std::memory_order_release);
  Metrics().durable_sequence->Set(static_cast<double>(end_sequence));
}

Status IngestJournal::WriteCheckpointRecord(uint64_t watermark,
                                            const SnapshotRef& ref) {
  BinaryWriter body;
  body.WriteVarint(kJournalVersion);
  body.WriteVarint(watermark);
  body.WriteVarint(static_cast<uint64_t>(ref.kind));
  body.WriteVarint(ref.size);
  body.WriteVarint(ref.crc);
  BinaryWriter record;
  record.WriteBytes(kCheckpointMagic, kJournalMagicSize);
  record.WriteVarint(body.buffer().size());
  record.WriteVarint(Crc32(body.buffer().data(), body.buffer().size()));
  record.WriteBytes(body.buffer().data(), body.buffer().size());

  const std::string tmp = options_.directory + "/" + kCheckpointTmpName;
  const std::string final_path = options_.directory + "/" + kCheckpointName;
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("cannot create checkpoint", tmp);
  Status st =
      WriteAll(fd, record.buffer().data(), record.buffer().size(), tmp);
  if (st.ok() && options_.fsync != FsyncPolicy::kNone) {
    st = FsyncFd(fd, tmp);
  }
  ::close(fd);
  if (!st.ok()) return st;
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("cannot install checkpoint", final_path);
  }
  return SyncDirectory();
}

Status IngestJournal::Checkpoint(uint64_t watermark,
                                 const SnapshotRef& ref) {
  CHURNLAB_SPAN("serve.journal.checkpoint");
  if (options_.read_only) {
    return Status::FailedPrecondition("journal is open read-only");
  }
  if (watermark > next_sequence()) {
    return Status::InvalidArgument(
        "checkpoint watermark " + std::to_string(watermark) +
        " is beyond the journal's next sequence " +
        std::to_string(next_sequence()));
  }
  if (ref.kind == SnapshotRef::Kind::kNone && watermark > 0) {
    return Status::InvalidArgument(
        "a checkpoint with a nonzero watermark needs a snapshot reference");
  }
  // Frames at or above the watermark must be durable before the checkpoint
  // claims everything below it lives in the snapshot (truncation follows).
  CHURNLAB_RETURN_NOT_OK(Sync());
  // Crash window the chaos harness aims at: the snapshot generation is
  // already on disk, but the checkpoint record naming it is not.
  CHURNLAB_FAILPOINT("serve.journal.checkpoint");
  CHURNLAB_RETURN_NOT_OK(WriteCheckpointRecord(watermark, ref));
  Metrics().checkpoints->Increment();

  // Drop segments whose whole range is below the watermark: first rotate
  // away the active segment when it is fully covered (so the newest bytes
  // keep living in a fresh segment), then unlink covered sealed segments.
  if (fd_ >= 0 && active_segment_has_frames_ &&
      next_sequence() <= watermark) {
    CHURNLAB_RETURN_NOT_OK(RotateSegment());
  }
  uint64_t unlinked = 0;
  std::vector<std::pair<uint64_t, uint64_t>> retained;
  for (const auto& [segment, end_sequence] : sealed_segment_ends_) {
    if (end_sequence <= watermark) {
      const std::string path = SegmentPath(segment);
      if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
        return ErrnoStatus("cannot unlink journal segment", path);
      }
      ++unlinked;
    } else {
      retained.push_back({segment, end_sequence});
    }
  }
  sealed_segment_ends_ = std::move(retained);
  oldest_segment_ = sealed_segment_ends_.empty()
                        ? active_segment_
                        : sealed_segment_ends_.front().first;
  if (unlinked > 0) {
    Metrics().truncated_segments->Increment(unlinked);
    CHURNLAB_RETURN_NOT_OK(SyncDirectory());
  }
  return Status::OK();
}

Result<IngestJournal> IngestJournal::Open(JournalOptions options,
                                          JournalRecovery* recovery) {
  CHURNLAB_SPAN("serve.journal.open");
  if (options.directory.empty()) {
    return Status::InvalidArgument("journal directory must not be empty");
  }
  if (options.max_segment_bytes == 0) {
    return Status::InvalidArgument("journal max_segment_bytes must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.directory, ec);
  if (ec) {
    return Status::IOError("cannot create journal directory '" +
                           options.directory + "': " + ec.message());
  }

  IngestJournal journal(std::move(options));
  if (!journal.options_.read_only) {
    journal.dir_fd_ =
        ::open(journal.options_.directory.c_str(), O_RDONLY | O_DIRECTORY);
    if (journal.dir_fd_ < 0) {
      return ErrnoStatus("cannot open journal directory",
                         journal.options_.directory);
    }
  }

  // Enumerate segments (sorted by number) and the checkpoint.
  std::vector<SegmentFile> segments;
  bool have_checkpoint = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(journal.options_.directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kCheckpointName) {
      have_checkpoint = true;
      continue;
    }
    unsigned long long number = 0;
    char trailer[6] = {0};
    if (std::sscanf(name.c_str(), "seg-%9llu%5s", &number, trailer) == 2 &&
        std::string_view(trailer) == ".chlj" && number > 0) {
      segments.push_back({number, entry.path().string()});
    }
  }
  if (ec) {
    return Status::IOError("cannot list journal directory '" +
                           journal.options_.directory +
                           "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.number < b.number;
            });

  JournalRecovery scratch;
  JournalRecovery* out = recovery != nullptr ? recovery : &scratch;
  *out = JournalRecovery();

  if (have_checkpoint) {
    CHURNLAB_RETURN_NOT_OK(
        ParseCheckpoint(journal.options_.directory + "/" + kCheckpointName,
                        &out->watermark, &out->snapshot));
  }
  if ((recovery == nullptr || !journal.options_.recover) &&
      (!segments.empty() || have_checkpoint)) {
    return Status::FailedPrecondition(
        "journal '" + journal.options_.directory +
        "' already holds state; pass --recover to replay it or remove the "
        "directory to start fresh");
  }

  // Scan in three passes. (1) Frame each segment in order: read it, check
  // its header and find each frame's bounds, stopping at the first segment
  // that cannot be framed. (2) CRC-check and decode every frame in
  // parallel. (3) Settle in frame order, so every decision — the first
  // failing frame wins, only the newest segment may end in a torn or
  // CRC-failing tail (a crash mid-append), anything else is DataLoss — is
  // the one a frame-by-frame scan makes.
  const Stopwatch scan_clock;
  std::vector<FramedSegment> framed;
  Status framing_error;  // what stopped pass (1), reported in order
  for (size_t i = 0; i < segments.size(); ++i) {
    if (i > 0 && segments[i].number != segments[i - 1].number + 1) {
      framing_error = Status::DataLoss(
          "journal segment numbering has a gap before '" + segments[i].path +
          "'");
      break;
    }
    Result<FramedSegment> segment = FrameSegment(segments[i]);
    if (!segment.ok()) {
      framing_error = segment.status();
      break;
    }
    framed.push_back(std::move(*segment));
  }

  std::vector<const RawFrame*> raw;
  for (const FramedSegment& segment : framed) {
    for (const RawFrame& frame : segment.frames) raw.push_back(&frame);
  }
  // (2) Read each frame's header in order, giving every frame its own
  // slots in one receipt vector, then CRC-check every frame and decode its
  // receipts into its slots in parallel.
  std::vector<FrameHeader> headers;
  headers.reserve(raw.size());
  std::vector<size_t> slot_begin(raw.size() + 1, 0);
  for (size_t i = 0; i < raw.size(); ++i) {
    headers.push_back(ReadFrameHeader(raw[i]->payload));
    slot_begin[i + 1] = slot_begin[i] + headers[i].slots;
  }
  out->receipts.resize(slot_begin.back());
  const size_t scan_threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  ParallelFor(0, raw.size(), scan_threads, [&](size_t i) {
    const RawFrame& frame = *raw[i];
    FrameHeader& header = headers[i];
    if (Crc32(frame.payload.data(), frame.payload.size()) != frame.crc) {
      header.status = Status::IOError("journal frame failed its CRC check");
    } else if (header.status.ok()) {
      header.status = ParseFrameReceipts(
          frame.payload.substr(header.body_offset), header.frame.count,
          std::span(out->receipts).subspan(slot_begin[i], header.slots));
    }
  });

  uint64_t running_next = 0;
  size_t accepted = 0;  // headers[0, accepted) are the intact frames
  uint64_t last_good_end = 0;  // byte offset after the last intact frame
  for (size_t i = 0; i < framed.size(); ++i) {
    const SegmentFile& segment = segments[i];
    const FramedSegment& frames = framed[i];
    const bool last_segment = i + 1 == segments.size();
    uint64_t good_end = frames.header_end;
    Status torn = Status::OK();
    for (const RawFrame& raw_frame : frames.frames) {
      if (!headers[accepted].status.ok()) {
        torn = std::move(headers[accepted].status);
        break;
      }
      const JournalFrame& frame = headers[accepted].frame;
      if (accepted > 0 && frame.first_sequence != running_next) {
        return Status::DataLoss(
            "journal sequence gap in '" + segment.path + "': frame starts at " +
            std::to_string(frame.first_sequence) + ", expected " +
            std::to_string(running_next));
      }
      running_next = frame.end_sequence();
      good_end = raw_frame.end;
      ++accepted;
      ++out->frames_scanned;
    }
    if (torn.ok()) torn = frames.framing;
    if (!torn.ok() && !last_segment) {
      return Status::DataLoss("journal segment '" + segment.path +
                              "' has a corrupted interior frame: " +
                              torn.message());
    }
    ++out->segments_scanned;
    if (!torn.ok()) {
      // Torn tail of the newest segment: discard it, truncate the file at
      // the last intact frame, and keep appending from there.
      ++out->discarded_tail_frames;
      out->discarded_tail_bytes += frames.total - good_end;
      Metrics().discarded_tail_frames->Increment();
      obs::LogEvent(LogLevel::kWarning, "journal_torn_tail", __FILE__,
                    __LINE__)
          .Str("segment", segment.path)
          .Uint("discarded_bytes", frames.total - good_end)
          .Str("reason", torn.message());
      if (!journal.options_.read_only &&
          ::truncate(segment.path.c_str(),
                     static_cast<off_t>(good_end)) != 0) {
        return ErrnoStatus("cannot truncate torn journal tail",
                           segment.path);
      }
      last_good_end = good_end;
    } else {
      last_good_end = frames.total;
    }

    const bool segment_has_frames = good_end > frames.header_end;
    if (last_segment) {
      journal.active_segment_has_frames_ = segment_has_frames;
    } else {
      journal.sealed_segment_ends_.emplace_back(segment.number,
                                                running_next);
    }
  }
  if (!framing_error.ok()) return framing_error;
  framed.clear();
  // An intact frame filled all its slots, so the intact frames' receipts
  // are exactly the first slot_begin[accepted].
  out->receipts.resize(slot_begin[accepted]);
  out->frames.reserve(accepted);
  for (size_t i = 0; i < accepted; ++i) {
    out->frames.push_back(headers[i].frame);
  }

  // A journal that was never checkpointed must start at sequence 0 — a
  // nonzero start would mean earlier acknowledged receipts are nowhere.
  if (out->watermark == 0 && !out->frames.empty() &&
      out->frames.front().first_sequence != 0) {
    return Status::DataLoss(
        "journal begins at sequence " +
        std::to_string(out->frames.front().first_sequence) +
        " but no checkpoint covers the receipts before it");
  }

  // Trim frames fully below the watermark (left behind when a crash landed
  // between the checkpoint record and segment truncation); replaying them
  // would double-apply receipts the snapshot already holds.
  size_t below = 0;  // frames[0, below) end at or below the watermark
  size_t below_receipts = 0;
  for (const JournalFrame& frame : out->frames) {
    if (frame.end_sequence() > out->watermark) break;
    below_receipts += frame.count;
    ++below;
  }
  if (below < out->frames.size() &&
      out->frames[below].first_sequence < out->watermark) {
    return Status::DataLoss(
        "journal checkpoint watermark " + std::to_string(out->watermark) +
        " splits a frame starting at sequence " +
        std::to_string(out->frames[below].first_sequence));
  }
  out->frames.erase(out->frames.begin(), out->frames.begin() + below);
  out->receipts.erase(out->receipts.begin(),
                      out->receipts.begin() + below_receipts);
  if (!out->frames.empty() &&
      out->frames.front().first_sequence != out->watermark) {
    return Status::DataLoss(
        "journal frames resume at sequence " +
        std::to_string(out->frames.front().first_sequence) +
        " but the checkpoint watermark is " +
        std::to_string(out->watermark));
  }

  out->next_sequence = out->frames.empty()
                           ? std::max(out->watermark, running_next)
                           : out->frames.back().end_sequence();
  journal.next_sequence_.store(out->next_sequence, std::memory_order_release);
  // Frames found on disk count as durable: nothing appended since.
  if (journal.options_.read_only) {
    journal.sync_->durable.store(out->next_sequence,
                                 std::memory_order_release);
  } else {
    journal.PublishDurable(out->next_sequence);
  }

  if (!segments.empty()) {
    const SegmentFile& last = segments.back();
    journal.oldest_segment_ = segments.front().number;
    journal.active_segment_ = last.number;
    if (!journal.options_.read_only) {
      CHURNLAB_RETURN_NOT_OK(
          journal.OpenActiveSegment(last.number, last_good_end));
    }
  }

  const uint64_t recovered_receipts = out->receipts.size();
  out->scan_ms = scan_clock.ElapsedMillis();
  if (out->frames_scanned > 0 || out->watermark > 0) {
    Metrics().recovered_frames->Increment(out->frames.size());
    Metrics().recovered_receipts->Increment(recovered_receipts);
    obs::LogEvent(LogLevel::kInfo, "journal_recovered", __FILE__, __LINE__)
        .Str("directory", journal.options_.directory)
        .Uint("watermark", out->watermark)
        .Uint("frames", out->frames.size())
        .Uint("receipts", recovered_receipts)
        .Uint("next_sequence", out->next_sequence)
        .Uint("discarded_tail_frames", out->discarded_tail_frames)
        .Num("scan_ms", out->scan_ms)
        .Uint("threads", scan_threads);
  }
  return journal;
}

}  // namespace serve
}  // namespace churnlab
