// Property tests for the byte-level codec and durable-file helpers in
// src/common/io_util.{h,cc} — the substrate under the WAL, snapshots, and
// the fuzz harness's repro artifacts:
//  - Crc32 matches the published IEEE-802.3 check values and a bit-at-a-time
//    reference implementation on random buffers (the table is an
//    optimization, not a definition).
//  - Append*/Read* round-trip arbitrary values exactly, including every
//    hostile double: ±0.0, denormals, ±inf, and NaNs compared by bit
//    pattern — the determinism contract stores doubles as raw bits.
//  - ByteReader fails with kIoError (never reads out of bounds) for every
//    truncation point of a valid buffer, and length-prefixed reads reject
//    hostile length claims — including counts that would overflow the
//    bounds arithmetic.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "common/io_util.h"
#include "common/rng.h"

namespace fm {
namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// --------------------------------------------------------------------------
// CRC-32
// --------------------------------------------------------------------------

TEST(Crc32, PublishedCheckValues) {
  // The standard CRC-32/ISO-HDLC ("zlib") check values.
  EXPECT_EQ(io::Crc32(std::string("")), 0x00000000u);
  EXPECT_EQ(io::Crc32(std::string("a")), 0xE8B7BE43u);
  EXPECT_EQ(io::Crc32(std::string("abc")), 0x352441C2u);
  EXPECT_EQ(io::Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(
      io::Crc32(std::string("The quick brown fox jumps over the lazy dog")),
      0x414FA339u);
}

// Bit-at-a-time reference: the polynomial definition with no table.
uint32_t ReferenceCrc32(const std::string& data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceOnRandomBuffers) {
  Rng rng(0xc4c32);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t size = rng.UniformInt(300);
    std::string buffer(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      buffer[i] = static_cast<char>(rng.UniformInt(256));
    }
    EXPECT_EQ(io::Crc32(buffer), ReferenceCrc32(buffer));
  }
}

TEST(Crc32, SingleBitFlipChangesChecksum) {
  const std::string buffer = "determinism contract";
  const uint32_t crc = io::Crc32(buffer);
  for (size_t i = 0; i < buffer.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = buffer;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(io::Crc32(flipped), crc);
    }
  }
}

// --------------------------------------------------------------------------
// Codec round trips
// --------------------------------------------------------------------------

TEST(Codec, IntegersRoundTripLittleEndian) {
  std::string out;
  io::AppendU8(&out, 0xAB);
  io::AppendU32(&out, 0x12345678u);
  io::AppendU64(&out, 0x1122334455667788ull);
  // Little-endian on disk, independent of host order.
  const uint8_t expected[] = {0xAB, 0x78, 0x56, 0x34, 0x12, 0x88, 0x77,
                              0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
  ASSERT_EQ(out.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(out.data(), expected, sizeof(expected)), 0);

  io::ByteReader reader(out);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(reader.ReadU8(&u8).ok());
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_TRUE(reader.empty());
}

TEST(Codec, HostileDoublesRoundTripBitExact) {
  const double denormal_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {
      +0.0,
      -0.0,
      denormal_min,
      -denormal_min,
      123 * denormal_min,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      // NaNs with specific payloads — ReadDouble must preserve the bits.
      DoubleFromBits(0x7FF8DEADBEEF0001ull),
      DoubleFromBits(0xFFF0000000000001ull),  // negative signaling-pattern
      1.0,
      -1.0 / 3.0,
  };
  std::string out;
  for (const double v : values) io::AppendDouble(&out, v);
  io::ByteReader reader(out);
  for (const double v : values) {
    double read = 0.0;
    ASSERT_TRUE(reader.ReadDouble(&read).ok());
    EXPECT_EQ(DoubleBits(read), DoubleBits(v))
        << "double " << v << " did not round-trip bit-exactly";
  }
  EXPECT_TRUE(reader.empty());
}

TEST(Codec, RandomMixedSequencesRoundTrip) {
  Rng rng(0x10del);
  for (int trial = 0; trial < 30; ++trial) {
    // Generate a random schedule of typed appends, then read it back.
    std::vector<int> kinds;
    std::string out;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    for (int i = 0; i < 40; ++i) {
      const int kind = static_cast<int>(rng.UniformInt(5));
      kinds.push_back(kind);
      switch (kind) {
        case 0: {
          const uint64_t v = rng.Next() & 0xFF;
          ints.push_back(v);
          io::AppendU8(&out, static_cast<uint8_t>(v));
          break;
        }
        case 1: {
          const uint64_t v = rng.Next() & 0xFFFFFFFFull;
          ints.push_back(v);
          io::AppendU32(&out, static_cast<uint32_t>(v));
          break;
        }
        case 2: {
          const uint64_t v = rng.Next();
          ints.push_back(v);
          io::AppendU64(&out, v);
          break;
        }
        case 3: {
          // Random bit patterns — about half are NaNs/denormals/infs.
          const double v = DoubleFromBits(rng.Next());
          doubles.push_back(v);
          io::AppendDouble(&out, v);
          break;
        }
        case 4:
        default: {
          std::string s(rng.UniformInt(20), '\0');
          for (char& ch : s) ch = static_cast<char>(rng.UniformInt(256));
          strings.push_back(s);
          io::AppendLengthPrefixed(&out, s);
          break;
        }
      }
    }
    io::ByteReader reader(out);
    size_t ii = 0, di = 0, si = 0;
    for (const int kind : kinds) {
      switch (kind) {
        case 0: {
          uint8_t v = 0;
          ASSERT_TRUE(reader.ReadU8(&v).ok());
          EXPECT_EQ(v, ints[ii++]);
          break;
        }
        case 1: {
          uint32_t v = 0;
          ASSERT_TRUE(reader.ReadU32(&v).ok());
          EXPECT_EQ(v, ints[ii++]);
          break;
        }
        case 2: {
          uint64_t v = 0;
          ASSERT_TRUE(reader.ReadU64(&v).ok());
          EXPECT_EQ(v, ints[ii++]);
          break;
        }
        case 3: {
          double v = 0.0;
          ASSERT_TRUE(reader.ReadDouble(&v).ok());
          EXPECT_EQ(DoubleBits(v), DoubleBits(doubles[di++]));
          break;
        }
        case 4:
        default: {
          std::string s;
          ASSERT_TRUE(reader.ReadLengthPrefixed(&s).ok());
          EXPECT_EQ(s, strings[si++]);
          break;
        }
      }
    }
    EXPECT_TRUE(reader.empty());
  }
}

TEST(Codec, DoubleArrayRoundTripsHostileBitPatterns) {
  Rng rng(0xa77a9);
  std::vector<double> values(257);  // not a multiple of any block size
  for (double& v : values) v = DoubleFromBits(rng.Next());
  std::string out;
  io::AppendDoubleArray(&out, values.data(), values.size());
  io::ByteReader reader(out);
  std::vector<double> read;
  ASSERT_TRUE(reader.ReadDoubleArray(&read, values.size()).ok());
  ASSERT_EQ(read.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(DoubleBits(read[i]), DoubleBits(values[i]));
  }
  EXPECT_TRUE(reader.empty());
}

// --------------------------------------------------------------------------
// ByteReader truncation / short-read edges
// --------------------------------------------------------------------------

TEST(ByteReader, EveryTruncationPointFailsCleanly) {
  // A valid buffer of one of each field; every proper prefix must produce
  // a kIoError somewhere in the read sequence, never an out-of-bounds read
  // or a bogus success.
  std::string full;
  io::AppendU8(&full, 0x5A);
  io::AppendU32(&full, 0xDEADBEEFu);
  io::AppendU64(&full, 0x0123456789ABCDEFull);
  io::AppendDouble(&full, -1.0 / 3.0);
  io::AppendLengthPrefixed(&full, "payload");
  std::vector<double> arr = {1.0, -0.0, 3.5};
  io::AppendDoubleArray(&full, arr.data(), arr.size());

  const auto read_all = [&arr](io::ByteReader& reader) -> Status {
    uint8_t u8 = 0;
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    double d = 0.0;
    std::string s;
    std::vector<double> a;
    FM_RETURN_NOT_OK(reader.ReadU8(&u8));
    FM_RETURN_NOT_OK(reader.ReadU32(&u32));
    FM_RETURN_NOT_OK(reader.ReadU64(&u64));
    FM_RETURN_NOT_OK(reader.ReadDouble(&d));
    FM_RETURN_NOT_OK(reader.ReadLengthPrefixed(&s));
    FM_RETURN_NOT_OK(reader.ReadDoubleArray(&a, arr.size()));
    return Status::OK();
  };

  {
    io::ByteReader reader(full);
    EXPECT_TRUE(read_all(reader).ok());
    EXPECT_TRUE(reader.empty());
  }
  for (size_t cut = 0; cut < full.size(); ++cut) {
    io::ByteReader reader(full.data(), cut);
    const Status status = read_all(reader);
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(status.code(), StatusCode::kIoError);
  }
}

TEST(ByteReader, LengthPrefixClaimingMoreThanBufferFails) {
  std::string out;
  io::AppendU64(&out, 1000);  // claims 1000 bytes...
  out.append("short");        // ...provides 5
  io::ByteReader reader(out);
  std::string s;
  const Status status = reader.ReadLengthPrefixed(&s);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(ByteReader, HugeDoubleCountDoesNotOverflowBoundsCheck) {
  // Regression: count * sizeof(double) wraps for counts near 2^61, which
  // used to pass the bounds check and then die inside resize(). The check
  // must reject by division, not multiplication.
  std::string out;
  io::AppendDouble(&out, 1.0);
  for (const uint64_t count :
       {uint64_t{1} << 61, (uint64_t{1} << 61) + 1, uint64_t{1} << 63,
        ~uint64_t{0} / sizeof(double) + 1, ~uint64_t{0}}) {
    io::ByteReader reader(out);
    std::vector<double> values;
    const Status status =
        reader.ReadDoubleArray(&values, static_cast<size_t>(count));
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "count=" << count << " must fail the bounds check";
    EXPECT_TRUE(values.empty());
  }
}

TEST(ByteReader, ReadBytesShortReadFails) {
  const std::string buffer = "abc";
  io::ByteReader reader(buffer);
  char out[8] = {0};
  EXPECT_EQ(reader.ReadBytes(out, 4).code(), StatusCode::kIoError);
  // The failed read consumed nothing; the exact-size read still works.
  EXPECT_TRUE(reader.ReadBytes(out, 3).ok());
  EXPECT_TRUE(reader.empty());
}

TEST(ByteReader, EmptyBufferEdges) {
  io::ByteReader reader("", 0);
  EXPECT_TRUE(reader.empty());
  EXPECT_EQ(reader.remaining(), 0u);
  uint8_t u8 = 0;
  EXPECT_EQ(reader.ReadU8(&u8).code(), StatusCode::kIoError);
  // Zero-length reads succeed on an empty buffer.
  EXPECT_TRUE(reader.ReadBytes(nullptr, 0).ok());
  std::vector<double> none;
  EXPECT_TRUE(reader.ReadDoubleArray(&none, 0).ok());
  EXPECT_TRUE(none.empty());
}

// --------------------------------------------------------------------------
// File helpers
// --------------------------------------------------------------------------

TEST(FileHelpers, AtomicWriteRoundTripsBinaryContents) {
  const std::string dir = ::testing::TempDir() + "io_util_test_files";
  ASSERT_TRUE(io::Env::Default().CreateDirectories(dir).ok());
  const std::string path = dir + "/binary.dat";
  std::string contents;
  Rng rng(0xf11e);
  for (int i = 0; i < 1000; ++i) {
    contents.push_back(static_cast<char>(rng.UniformInt(256)));
  }
  ASSERT_TRUE(io::WriteFileAtomic(io::Env::Default(), path, contents,
                                  /*sync=*/false)
                  .ok());
  const Result<std::string> read =
      io::ReadFileToString(io::Env::Default(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie(), contents);

  ASSERT_TRUE(io::Env::Default().TruncateFile(path, 100).ok());
  const Result<uint64_t> size = io::Env::Default().FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.ValueOrDie(), 100u);

  ASSERT_TRUE(io::Env::Default().RemoveFileIfExists(path).ok());
  EXPECT_EQ(io::ReadFileToString(io::Env::Default(), path).status().code(),
            StatusCode::kNotFound);
  // Removing a missing file is OK (idempotent).
  EXPECT_TRUE(io::Env::Default().RemoveFileIfExists(path).ok());
}

}  // namespace
}  // namespace fm
