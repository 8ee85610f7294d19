#include "common/binary_io.h"

#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

namespace churnlab {
namespace {

TEST(BinaryIo, VarintRoundTripSmall) {
  BinaryWriter writer;
  writer.WriteVarint(0);
  writer.WriteVarint(1);
  writer.WriteVarint(127);
  writer.WriteVarint(128);
  writer.WriteVarint(300);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(), 0u);
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(), 1u);
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(), 127u);
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(), 128u);
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(), 300u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIo, VarintRoundTripMax) {
  BinaryWriter writer;
  writer.WriteVarint(std::numeric_limits<uint64_t>::max());
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadVarint().ValueOrDie(),
            std::numeric_limits<uint64_t>::max());
}

TEST(BinaryIo, VarintEncodingIsCompact) {
  BinaryWriter writer;
  writer.WriteVarint(5);
  EXPECT_EQ(writer.buffer().size(), 1u);
  BinaryWriter writer2;
  writer2.WriteVarint(128);
  EXPECT_EQ(writer2.buffer().size(), 2u);
}

TEST(BinaryIo, SignedVarintRoundTrip) {
  BinaryWriter writer;
  const int64_t values[] = {0, -1, 1, -64, 63, -1000000,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (const int64_t value : values) writer.WriteSignedVarint(value);
  BinaryReader reader(writer.buffer());
  for (const int64_t value : values) {
    EXPECT_EQ(reader.ReadSignedVarint().ValueOrDie(), value);
  }
}

TEST(BinaryIo, ZigZagKeepsSmallMagnitudesSmall) {
  BinaryWriter writer;
  writer.WriteSignedVarint(-1);
  EXPECT_EQ(writer.buffer().size(), 1u);
}

TEST(BinaryIo, DoubleRoundTrip) {
  BinaryWriter writer;
  const double values[] = {0.0, -0.0, 3.141592653589793, -1e300, 1e-300,
                           std::numeric_limits<double>::infinity()};
  for (const double value : values) writer.WriteDouble(value);
  BinaryReader reader(writer.buffer());
  for (const double value : values) {
    EXPECT_EQ(reader.ReadDouble().ValueOrDie(), value);
  }
}

TEST(BinaryIo, StringRoundTrip) {
  BinaryWriter writer;
  writer.WriteString("");
  writer.WriteString("hello");
  writer.WriteString(std::string("with\0null", 9));
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString().ValueOrDie(), "");
  EXPECT_EQ(reader.ReadString().ValueOrDie(), "hello");
  EXPECT_EQ(reader.ReadString().ValueOrDie(), std::string("with\0null", 9));
}

TEST(BinaryIo, TruncatedVarintFails) {
  BinaryReader reader(std::string("\x80", 1));  // continuation, no next byte
  EXPECT_TRUE(reader.ReadVarint().status().IsOutOfRange());
}

TEST(BinaryIo, OverlongVarintFails) {
  // 11 bytes of continuation overflows 64 bits.
  BinaryReader reader(std::string(11, '\xFF'));
  EXPECT_TRUE(reader.ReadVarint().status().IsOutOfRange());
}

TEST(BinaryIo, TruncatedDoubleFails) {
  BinaryReader reader(std::string(4, 'x'));
  EXPECT_TRUE(reader.ReadDouble().status().IsOutOfRange());
}

TEST(BinaryIo, TruncatedStringFails) {
  BinaryWriter writer;
  writer.WriteVarint(100);  // declares 100 bytes, provides none
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.ReadString().status().IsOutOfRange());
}

TEST(BinaryIo, ReadBytesClampsUntrustedLengthAgainstRemaining) {
  // Regression: ReadBytes used to trust the caller's length and substr
  // past the buffer. A hostile length prefix — even a multi-exabyte one —
  // must fail as InvalidArgument without allocating.
  BinaryReader reader(std::string("abc"));
  const auto too_big = reader.ReadBytes(4);
  ASSERT_FALSE(too_big.ok());
  EXPECT_TRUE(too_big.status().IsInvalidArgument());

  BinaryReader hostile(std::string("abc"));
  EXPECT_TRUE(
      hostile.ReadBytes(size_t{1} << 60).status().IsInvalidArgument());

  // The failed read consumes nothing; an exact-size read still works.
  EXPECT_EQ(reader.remaining(), 3u);
  EXPECT_EQ(reader.ReadBytes(3).ValueOrDie(), "abc");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIo, AppendToFileConcatenates) {
  const std::string path = testing::TempDir() + "/churnlab_append_test.bin";
  BinaryWriter first;
  first.WriteString("one");
  ASSERT_TRUE(first.SaveToFile(path).ok());
  BinaryWriter second;
  second.WriteString("two");
  ASSERT_TRUE(second.AppendToFile(path).ok());
  auto reader = BinaryReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadString().ValueOrDie(), "one");
  EXPECT_EQ(reader->ReadString().ValueOrDie(), "two");
  EXPECT_TRUE(reader->AtEnd());

  // SaveToFile truncates; AppendToFile creates when missing.
  ASSERT_TRUE(second.SaveToFile(path).ok());
  auto truncated = BinaryReader::OpenFile(path);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->ReadString().ValueOrDie(), "two");
  EXPECT_TRUE(truncated->AtEnd());
  std::remove(path.c_str());

  BinaryWriter fresh;
  fresh.WriteString("first write");
  ASSERT_TRUE(fresh.AppendToFile(path).ok());
  auto created = BinaryReader::OpenFile(path);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->ReadString().ValueOrDie(), "first write");
  std::remove(path.c_str());
}

TEST(BinaryIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/churnlab_binary_test.bin";
  BinaryWriter writer;
  writer.WriteVarint(7);
  writer.WriteString("disk");
  ASSERT_TRUE(writer.SaveToFile(path).ok());
  auto reader = BinaryReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->ReadVarint().ValueOrDie(), 7u);
  EXPECT_EQ(reader->ReadString().ValueOrDie(), "disk");
  std::remove(path.c_str());
}

TEST(BinaryIo, OpenMissingFileFails) {
  EXPECT_TRUE(
      BinaryReader::OpenFile("/nonexistent/nope.bin").status().IsIOError());
}

TEST(BinaryIo, RemainingTracksConsumption) {
  BinaryWriter writer;
  writer.WriteDouble(1.0);
  writer.WriteDouble(2.0);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.remaining(), 16u);
  ASSERT_TRUE(reader.ReadDouble().ok());
  EXPECT_EQ(reader.remaining(), 8u);
  ASSERT_TRUE(reader.ReadDouble().ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIo, OpenFileReadsEmptyAndMultiMegabyteFiles) {
  const std::string path = testing::TempDir() + "/churnlab_binary_big.bin";
  ASSERT_TRUE(BinaryWriter().SaveToFile(path).ok());
  auto empty = BinaryReader::OpenFile(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->AtEnd());

  BinaryWriter writer;
  const size_t count = (3u << 20) / 8 + 5;  // a little over 3 MiB
  for (size_t i = 0; i < count; ++i) {
    writer.WriteDouble(static_cast<double>(i) * 0.5);
  }
  ASSERT_TRUE(writer.SaveToFile(path).ok());
  auto reader = BinaryReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->remaining(), count * 8);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(reader->ReadDouble().ValueOrDie(), static_cast<double>(i) * 0.5);
  }
  EXPECT_TRUE(reader->AtEnd());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CRC-32 known answers, pinned against a bytewise reference so any faster
// implementation must produce the same checksum for every length and
// alignment.
// ---------------------------------------------------------------------------

uint32_t ReferenceCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog", 43),
            0x414FA339u);
}

TEST(Crc32, SeedChainingEqualsOneShot) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(text.data(), text.size());
  for (size_t split = 0; split <= text.size(); ++split) {
    const uint32_t head = Crc32(text.data(), split);
    EXPECT_EQ(Crc32(text.data() + split, text.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  uint8_t bytes[8 + 67];
  uint32_t state = 0x12345678u;
  for (uint8_t& byte : bytes) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<uint8_t>(state >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 67; ++length) {
      const uint8_t* data = bytes + offset;
      EXPECT_EQ(Crc32(data, length), ReferenceCrc32(data, length, 0))
          << "offset " << offset << " length " << length;
      EXPECT_EQ(Crc32(data, length, 0x9E3779B9u),
                ReferenceCrc32(data, length, 0x9E3779B9u))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace churnlab
