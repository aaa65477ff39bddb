#include "common/io_util.h"

#include <cstring>

namespace fm::io {

uint32_t Crc32(const void* data, size_t size) {
  // Table-driven CRC-32 (IEEE 802.3, reflected 0xEDB88320). The table is
  // computed once; the polynomial and reflection match zlib's crc32, so the
  // on-disk format stays checkable with standard tools.
  static const uint32_t* const kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void AppendU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void AppendDouble(std::string* out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

void AppendBytes(std::string* out, const void* data, size_t size) {
  // append(nullptr, 0) is formally UB; empty arrays pass a null pointer.
  if (size > 0) out->append(static_cast<const char*>(data), size);
}

void AppendLengthPrefixed(std::string* out, const std::string& bytes) {
  AppendU64(out, bytes.size());
  out->append(bytes);
}

void AppendDoubleArray(std::string* out, const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) AppendDouble(out, values[i]);
}

Status ByteReader::ReadU8(uint8_t* out) {
  if (remaining() < 1) return Status::IoError("buffer underrun reading u8");
  *out = data_[offset_++];
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* out) {
  if (remaining() < 4) return Status::IoError("buffer underrun reading u32");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(data_[offset_ + static_cast<size_t>(i)])
             << (8 * i);
  }
  offset_ += 4;
  *out = value;
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* out) {
  if (remaining() < 8) return Status::IoError("buffer underrun reading u64");
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(data_[offset_ + static_cast<size_t>(i)])
             << (8 * i);
  }
  offset_ += 8;
  *out = value;
  return Status::OK();
}

Status ByteReader::ReadDouble(double* out) {
  uint64_t bits = 0;
  FM_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::ReadBytes(void* out, size_t size) {
  if (remaining() < size) {
    return Status::IoError("buffer underrun reading " + std::to_string(size) +
                           " bytes (have " + std::to_string(remaining()) +
                           ")");
  }
  // memcpy requires non-null pointers even for size 0, and `out` is
  // legitimately null when reading an empty array (vector::data()).
  if (size > 0) {
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
  }
  return Status::OK();
}

Status ByteReader::ReadLengthPrefixed(std::string* out) {
  uint64_t size = 0;
  FM_RETURN_NOT_OK(ReadU64(&size));
  if (remaining() < size) {
    return Status::IoError("length-prefixed field claims " +
                           std::to_string(size) + " bytes, only " +
                           std::to_string(remaining()) + " remain");
  }
  out->assign(reinterpret_cast<const char*>(data_ + offset_),
              static_cast<size_t>(size));
  offset_ += static_cast<size_t>(size);
  return Status::OK();
}

Status ByteReader::ReadDoubleArray(std::vector<double>* out, size_t count) {
  // Divide instead of multiplying: `count` may come straight off disk, and
  // count * sizeof(double) can wrap for a hostile value, passing the bounds
  // check and then dying in resize().
  if (count > remaining() / sizeof(double)) {
    return Status::IoError("buffer underrun reading " + std::to_string(count) +
                           " doubles");
  }
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    FM_RETURN_NOT_OK(ReadDouble(&(*out)[i]));
  }
  return Status::OK();
}

}  // namespace fm::io
