#ifndef CHURNLAB_COMMON_BINARY_IO_H_
#define CHURNLAB_COMMON_BINARY_IO_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace churnlab {

/// \brief Growable little-endian binary output buffer used by the dataset
/// binary format.
///
/// Integers are written as LEB128 varints (datasets are mostly small ids, so
/// varints roughly halve file size versus fixed width); doubles as raw IEEE
/// bytes; strings as varint length + bytes.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteVarint(uint64_t value);
  /// ZigZag-encoded signed varint.
  void WriteSignedVarint(int64_t value);
  void WriteDouble(double value);
  void WriteString(std::string_view value);
  void WriteBytes(const void* data, size_t size);

  const std::string& buffer() const { return buffer_; }

  /// Writes the accumulated buffer to `path` (truncating). Failpoint site
  /// `common.binary_io.save` (corrupt-bytes flips a bit of the written copy,
  /// never of the in-memory buffer).
  Status SaveToFile(const std::string& path) const;

  /// Appends the accumulated buffer to `path` (creating it if absent) and
  /// fsyncs it, and the directory entry of a file it created, before
  /// returning: the append is durable once this succeeds. Used by
  /// append-only formats such as fleet snapshot generations. Same failpoint
  /// site as SaveToFile.
  Status AppendToFile(const std::string& path) const;

 private:
  Status WriteTo(const std::string& path, bool append) const;

  std::string buffer_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `size` bytes at `data`,
/// continued from `seed` (pass a previous return value to checksum data in
/// chunks; 0 starts a fresh checksum). Used by the fleet snapshot format to
/// detect torn or corrupted shard frames.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// \brief Reader over a binary buffer produced by BinaryWriter.
///
/// All reads are bounds-checked: fixed-width and varint reads return
/// OutOfRange on truncated input, while ReadBytes — whose size is an
/// untrusted, externally-framed length prefix — returns InvalidArgument
/// when the prefix exceeds the remaining buffer.
///
/// A reader either owns its buffer (the constructor, OpenFile) or reads
/// bytes the caller keeps alive (Over). Moving an owning reader keeps its
/// bytes in place, so views from ReadView stay valid.
class BinaryReader {
 public:
  explicit BinaryReader(std::string buffer)
      : owned_(std::make_unique<std::string>(std::move(buffer))),
        data_(*owned_) {}

  /// A reader over `bytes` without copying them; the caller keeps them
  /// alive for as long as the reader is used.
  static BinaryReader Over(std::string_view bytes) {
    BinaryReader reader;
    reader.data_ = bytes;
    return reader;
  }

  /// Loads the whole file at `path` into a reader with one read sized from
  /// the file's length. Failpoint site `common.binary_io.open`
  /// (corrupt-bytes flips a bit of the loaded copy).
  static Result<BinaryReader> OpenFile(const std::string& path);

  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSignedVarint();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  /// Reads exactly `size` raw bytes (the counterpart of WriteBytes when the
  /// length is framed externally, e.g. snapshot shard frames). `size` is
  /// treated as untrusted: a prefix larger than the remaining buffer fails
  /// with InvalidArgument before any allocation is sized from it.
  Result<std::string> ReadBytes(size_t size);
  /// As ReadBytes, without the copy: the view points into the reader's
  /// bytes and lives as long as they do.
  Result<std::string_view> ReadView(size_t size);

  /// Steps over `count` varints without decoding them. Bounds-checked:
  /// false, with the reader at the end, when fewer than `count` varints
  /// are left. An over-long varint is not detected here; ReadVarint
  /// rejects it.
  bool SkipVarints(uint64_t count);

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  /// Bytes consumed so far.
  size_t position() const { return pos_; }
  /// A reader over the same bytes, without copying them, at `position`
  /// (clamped to the end). It reads only while this reader's bytes live;
  /// its remaining() counts to the same end as this reader's.
  BinaryReader ViewAt(size_t position) const {
    BinaryReader view = Over(data_);
    view.pos_ = std::min(position, data_.size());
    return view;
  }

 private:
  BinaryReader() = default;

  /// The bytes an owning reader holds (null for Over); heap-held so a move
  /// leaves data_ pointing at them.
  std::unique_ptr<std::string> owned_;
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace churnlab

#endif  // CHURNLAB_COMMON_BINARY_IO_H_
