#ifndef FM_COMMON_IO_UTIL_H_
#define FM_COMMON_IO_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fm::io {

/// Byte-level encode/decode helpers shared by the serving layer's
/// write-ahead log and snapshot files (src/serve/wal.*,
/// src/serve/snapshot.*). Whole-file reads, atomic writes and directory
/// operations go through the io::Env seam (common/io_env.h).
///
/// All multi-byte integers are little-endian on disk regardless of host
/// order, and doubles are stored as the little-endian bytes of their IEEE-754
/// bit pattern — the on-disk format round-trips every double bit-for-bit
/// (including -0.0 and NaN payloads), which is what lets recovery reproduce
/// the serving layer's byte-determinism contract (docs/DETERMINISM.md).

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes. Used as the
/// integrity check on WAL records and snapshot payloads: a torn or
/// bit-rotted tail fails its CRC and recovery truncates to the last valid
/// prefix instead of replaying garbage.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(const std::string& data) {
  return Crc32(data.data(), data.size());
}

// Little-endian append helpers.
void AppendU8(std::string* out, uint8_t value);
void AppendU32(std::string* out, uint32_t value);
void AppendU64(std::string* out, uint64_t value);
/// Appends the IEEE-754 bit pattern; exact round-trip for every double.
void AppendDouble(std::string* out, double value);
void AppendBytes(std::string* out, const void* data, size_t size);
/// AppendU64 length prefix + raw bytes.
void AppendLengthPrefixed(std::string* out, const std::string& bytes);
/// Appends `count` doubles' bit patterns (no length prefix).
void AppendDoubleArray(std::string* out, const double* values, size_t count);

/// Bounds-checked sequential reader over a byte buffer. Every read fails
/// with kIoError instead of running past the end, so a truncated or
/// corrupted buffer surfaces as a Status, never as undefined behavior. The
/// reader does not own the buffer; it must outlive the reader.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(const std::string& buffer)
      : ByteReader(buffer.data(), buffer.size()) {}

  size_t remaining() const { return size_ - offset_; }
  bool empty() const { return offset_ == size_; }
  size_t offset() const { return offset_; }

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadDouble(double* out);
  Status ReadBytes(void* out, size_t size);
  /// ReadU64 length prefix + that many raw bytes.
  Status ReadLengthPrefixed(std::string* out);
  /// Reads `count` doubles into `out` (resized to `count`).
  Status ReadDoubleArray(std::vector<double>* out, size_t count);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
};

}  // namespace fm::io

#endif  // FM_COMMON_IO_UTIL_H_
