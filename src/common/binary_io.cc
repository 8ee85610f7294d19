#include "common/binary_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>

#include "common/failpoint.h"
#include "common/macros.h"

namespace churnlab {

namespace {

/// Slicing-by-8 tables of the reflected polynomial: kCrc32Tables[0] is the
/// classic bytewise table, and kCrc32Tables[k][b] is the CRC of byte b
/// followed by k zero bytes, so one lookup per byte folds 8 bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t previous = tables.t[k - 1][i];
      tables.t[k][i] = (previous >> 8) ^ tables.t[0][previous & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load, independent of the host's byte order.
inline uint32_t LoadLittleEndian32(const uint8_t* bytes) {
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

/// fsyncs the directory holding `path`, so a new entry in it is durable.
bool SyncParentDirectory(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  const std::filesystem::path directory = parent.empty() ? "." : parent;
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

}  // namespace

void BinaryWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    buffer_ += static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  buffer_ += static_cast<char>(value);
}

void BinaryWriter::WriteSignedVarint(int64_t value) {
  const uint64_t zigzag =
      (static_cast<uint64_t>(value) << 1) ^
      static_cast<uint64_t>(value >> 63);
  WriteVarint(zigzag);
}

void BinaryWriter::WriteDouble(double value) {
  static_assert(sizeof(double) == 8);
  char bytes[8];
  std::memcpy(bytes, &value, 8);
  buffer_.append(bytes, 8);
}

void BinaryWriter::WriteString(std::string_view value) {
  WriteVarint(value.size());
  buffer_.append(value.data(), value.size());
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status BinaryWriter::WriteTo(const std::string& path, bool append) const {
  static Failpoint* const save_failpoint =
      FailpointRegistry::Global().Get("common.binary_io.save");
  const std::string* bytes = &buffer_;
  std::string corrupted;
  if (save_failpoint->armed()) {
    // Corrupt a copy so the in-memory writer stays pristine; error/throw
    // actions fire here, before the file is touched.
    corrupted = buffer_;
    CHURNLAB_RETURN_NOT_OK(save_failpoint->CorruptBytes(&corrupted));
    bytes = &corrupted;
  }
  // O_EXCL first tells an append whether it created the file, whose
  // directory entry must then be synced too.
  const int flags = O_WRONLY | O_CLOEXEC | (append ? O_APPEND : O_TRUNC);
  int fd = ::open(path.c_str(), flags | O_CREAT | (append ? O_EXCL : 0), 0666);
  const bool created = append && fd >= 0;
  if (append && fd < 0 && errno == EEXIST) fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const char* data = bytes->data();
  size_t left = bytes->size();
  bool failed = false;
  while (left > 0 && !failed) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      failed = errno != EINTR;
      continue;
    }
    data += n;
    left -= static_cast<size_t>(n);
  }
  // The data, then (for a new file) its directory entry, reach the disk
  // before an append reports success.
  if (append && !failed) failed = ::fsync(fd) != 0;
  failed = ::close(fd) != 0 || failed;
  if (created && !failed) failed = !SyncParentDirectory(path);
  if (failed) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

Status BinaryWriter::SaveToFile(const std::string& path) const {
  return WriteTo(path, /*append=*/false);
}

Status BinaryWriter::AppendToFile(const std::string& path) const {
  return WriteTo(path, /*append=*/true);
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& table = kCrc32Tables.t;
  uint32_t crc = ~seed;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t low = LoadLittleEndian32(bytes) ^ crc;
    const uint32_t high = LoadLittleEndian32(bytes + 4);
    crc = table[7][low & 0xFF] ^ table[6][(low >> 8) & 0xFF] ^
          table[5][(low >> 16) & 0xFF] ^ table[4][low >> 24] ^
          table[3][high & 0xFF] ^ table[2][(high >> 8) & 0xFF] ^
          table[1][(high >> 16) & 0xFF] ^ table[0][high >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ table[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

Result<BinaryReader> BinaryReader::OpenFile(const std::string& path) {
  static Failpoint* const open_failpoint =
      FailpointRegistry::Global().Get("common.binary_io.open");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for reading");
  // Size the buffer from the file's length and fill it in place; a file
  // that grew since fstat is read on to its end.
  std::string buffer;
  struct stat info{};
  bool failed = ::fstat(fd, &info) != 0;
  if (!failed) buffer.resize(static_cast<size_t>(info.st_size));
  size_t filled = 0;
  while (!failed) {
    char spill[4096];
    const bool sized = filled < buffer.size();
    const ssize_t n = sized ? ::read(fd, buffer.data() + filled,
                                     buffer.size() - filled)
                            : ::read(fd, spill, sizeof(spill));
    if (n < 0) {
      failed = errno != EINTR;
    } else if (n == 0) {
      break;
    } else if (sized) {
      filled += static_cast<size_t>(n);
    } else {
      buffer.append(spill, static_cast<size_t>(n));
      filled = buffer.size();
    }
  }
  ::close(fd);
  if (failed) return Status::IOError("error while reading '" + path + "'");
  buffer.resize(filled);
  if (open_failpoint->armed()) {
    CHURNLAB_RETURN_NOT_OK(open_failpoint->CorruptBytes(&buffer));
  }
  return BinaryReader(std::move(buffer));
}

Result<uint64_t> BinaryReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 64 || (shift == 63 && (byte & 0x7F) > 1)) {
      return Status::OutOfRange("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return Status::OutOfRange("truncated varint at end of buffer");
}

bool BinaryReader::SkipVarints(uint64_t count) {
  // A varint ends at its first byte without the continuation bit, so
  // skipping is counting such bytes: one compare per byte, no decode.
  const size_t size = data_.size();
  size_t pos = pos_;
  while (count > 0 && pos < size) {
    count -= static_cast<uint8_t>(data_[pos++]) < 0x80 ? 1 : 0;
  }
  pos_ = pos;
  return count == 0;
}

Result<int64_t> BinaryReader::ReadSignedVarint() {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t zigzag, ReadVarint());
  return static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
}

Result<double> BinaryReader::ReadDouble() {
  if (remaining() < 8) {
    return Status::OutOfRange("truncated double at end of buffer");
  }
  double value;
  std::memcpy(&value, data_.data() + pos_, 8);
  pos_ += 8;
  return value;
}

Result<std::string> BinaryReader::ReadString() {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t size, ReadVarint());
  if (remaining() < size) {
    return Status::OutOfRange("truncated string at end of buffer");
  }
  std::string value(data_.substr(pos_, size));
  pos_ += size;
  return value;
}

Result<std::string> BinaryReader::ReadBytes(size_t size) {
  CHURNLAB_ASSIGN_OR_RETURN(const std::string_view bytes, ReadView(size));
  return std::string(bytes);
}

Result<std::string_view> BinaryReader::ReadView(size_t size) {
  if (remaining() < size) {
    return Status::InvalidArgument(
        "length prefix (" + std::to_string(size) +
        " bytes) exceeds remaining buffer (" + std::to_string(remaining()) +
        " bytes)");
  }
  const std::string_view bytes = data_.substr(pos_, size);
  pos_ += size;
  return bytes;
}

}  // namespace churnlab
