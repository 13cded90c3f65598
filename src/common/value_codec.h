// Byte codec of the on-disk formats.
//
// Values are stored length-prefixed (LEB128 varint + raw bytes) so they may
// contain any byte including newlines and NULs. Set files (spill runs
// included), the disk column store's blocks, the store manifest and the
// profile manifest are all written with the helpers below, and SpanReader
// is the one bounds-checked reader of every span of them read back into
// memory.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace spider {

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

/// \brief The one bounds-checked reader over a byte span. The store and
/// profile manifests, every `.set` record and footer and every `.col`
/// block decode through it, so no count, length or offset read from a file
/// is used before it is checked against the bytes that remain. Each call
/// returns false when the span cannot hold what it asks for; the position
/// is then unspecified and the caller treats the input as damaged.
class SpanReader {
 public:
  SpanReader() = default;
  explicit SpanReader(std::string_view bytes) : bytes_(bytes) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  /// A LEB128 varint of at most 10 bytes: the only varint decoder.
  bool Varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (pos_ == bytes_.size()) return false;
      const auto byte = static_cast<unsigned char>(bytes_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
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
