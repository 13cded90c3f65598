// On-disk record format for sorted value files and spill runs.
//
// Records are canonical value strings, stored length-prefixed (LEB128
// varint + raw bytes) so values may contain any byte including newlines and
// NULs. The same codec is used by spill runs, final sorted-set files, the
// disk column store's blocks and the profile manifest; SpanReader below is
// the one bounds-checked reader of in-memory spans of those formats.

#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace spider {

/// Appends one record to `out`.
[[nodiscard]]
Status WriteValueRecord(std::ostream& out, std::string_view value);

/// Appends the LEB128 encoding of `v` to `*out`.
inline void EncodeVarint(std::string* out, uint64_t v) {
  do {
    unsigned char byte = v & 0x7F;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    out->push_back(static_cast<char>(byte));
  } while (v != 0);
}

/// Appends `value` as a record: varint length + raw bytes.
inline void AppendLengthPrefixed(std::string* out, std::string_view value) {
  EncodeVarint(out, value.size());
  out->append(value.data(), value.size());
}

/// Appends `v` as 8 little-endian bytes.
inline void AppendFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Reads 8 little-endian bytes at `p`.
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Reads the next record into `*value`. Returns false at clean EOF; a
/// truncated record yields an IOError through `*status`.
bool ReadValueRecord(std::istream& in, std::string* value, Status* status);

/// Outcome of decoding one LEB128 length header.
enum class VarintDecode { kOk, kCleanEof, kCorrupt, kTruncated };

/// Decodes a LEB128 varint by pulling bytes from `next_byte` — a callable
/// returning the next byte as 0..255, or a negative value at end of input.
/// The single varint decoder: the stream codec, the block-buffered
/// SortedSetReader and SpanReader all use it, so the formats cannot drift.
template <typename NextByte>
VarintDecode DecodeVarint(NextByte&& next_byte, uint64_t* out) {
  const int first = next_byte();
  if (first < 0) return VarintDecode::kCleanEof;
  uint64_t len = 0;
  int shift = 0;
  int byte = first;
  while (true) {
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return VarintDecode::kCorrupt;
    byte = next_byte();
    if (byte < 0) return VarintDecode::kTruncated;
  }
  *out = len;
  return VarintDecode::kOk;
}

/// \brief The one bounds-checked reader over a byte span. The profile
/// manifest, the `.set` footer and every `.col` block decode through it,
/// so no count, length or offset read from a file is used before it is
/// checked against the bytes that remain. Each call returns false when the
/// span cannot hold what it asks for; the position is then unspecified and
/// the caller treats the input as damaged.
class SpanReader {
 public:
  SpanReader() = default;
  explicit SpanReader(std::string_view bytes) : bytes_(bytes) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  bool Varint(uint64_t* out) {
    return DecodeVarint(
               [this]() -> int {
                 return pos_ < bytes_.size()
                            ? static_cast<unsigned char>(bytes_[pos_++])
                            : -1;
               },
               out) == VarintDecode::kOk;
  }
  bool Int64(int64_t* out) {
    uint64_t v = 0;
    if (!Varint(&v)) return false;
    *out = static_cast<int64_t>(v);
    return true;
  }
  /// A count of elements taking at least `min_bytes` each: no more than
  /// the bytes that remain can hold.
  bool Count(size_t min_bytes, uint64_t* out) {
    return Varint(out) && *out <= remaining() / min_bytes;
  }
  bool Byte(uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool Fixed64(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = DecodeFixed64(bytes_.data() + pos_);
    pos_ += 8;
    return true;
  }
  /// The next `length` bytes, as a view into the span.
  bool Bytes(uint64_t length, std::string_view* out) {
    if (length > remaining()) return false;
    *out = bytes_.substr(pos_, static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }
  /// A varint length and that many bytes.
  bool String(std::string* out) {
    uint64_t length = 0;
    std::string_view bytes;
    if (!Varint(&length) || !Bytes(length, &bytes)) return false;
    out->assign(bytes.data(), bytes.size());
    return true;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace spider
