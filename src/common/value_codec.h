// On-disk record format for sorted value files and spill runs.
//
// Records are canonical value strings, stored length-prefixed (LEB128
// varint + raw bytes) so values may contain any byte including newlines and
// NULs. The same codec is used by spill runs, final sorted-set files, the
// disk column store's block headers and the profile manifest.

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
/// The single decoder shared by the stream codec and the block-buffered
/// SortedSetReader, so the record format cannot drift between them.
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

}  // namespace spider
