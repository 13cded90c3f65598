#include "src/storage/store_manifest.h"

#include <algorithm>
#include <utility>

#include "src/common/value_codec.h"

namespace spider {

namespace {

// Store manifest format (binary, version 5). Integers are LEB128 varints
// (EncodeVarint, and SpanReader to decode); a string is a varint length
// plus its raw bytes.
//
//   magic "SpStrMan", version byte 5
//   catalog name, block bytes, table count; per table:
//     name, row count, file name, file bytes, column count; per column:
//       name, type byte (TypeId), declared-unique byte (0 or 1), own block
//       bytes, block count, each block's absolute offset in the table
//       file, non-null count, distinct count, flags (bit 0: min present,
//       bit 1: max present), [min], [max]
//   foreign key count; per key: referencing table and column, referenced
//   table and column
//
// Nothing follows the last key. There is no checksum: every count is
// checked against the bytes that remain before it sizes an allocation, and
// every offset and count against the table it describes, so damage fails
// here or in the reader that meets it.
//
// Versions 1 to 4 were tab-separated text ("spider-store\t<n>"). They fail
// with "missing or unsupported version header" and must be re-imported.

constexpr std::string_view kMagic = "SpStrMan";
constexpr char kVersion = 5;
constexpr uint8_t kHasMin = 1;
constexpr uint8_t kHasMax = 2;
// The fewest bytes an encoded element takes, for bounding counts.
constexpr size_t kMinTableBytes = 6;
constexpr size_t kMinColumnBytes = 8;
constexpr size_t kMinForeignKeyBytes = 4;

void AppendInt(std::string* out, int64_t v) {
  EncodeVarint(out, static_cast<uint64_t>(v));
}

Status Bad(const std::string& why) {
  return Status::InvalidArgument(why);
}

Status Truncated(const char* record) {
  return Bad(std::string("truncated ") + record + " record");
}

// Decodes the next column record of `table` into `column`.
Status DecodeColumn(SpanReader& in, const ManifestTable& table,
                    ManifestColumn* column) {
  uint8_t type = 0;
  uint8_t unique = 0;
  uint64_t blocks = 0;
  if (!in.String(&column->name) || !in.Byte(&type) || !in.Byte(&unique) ||
      !in.Int64(&column->bytes) || !in.Count(1, &blocks)) {
    return Truncated("column");
  }
  if (type > static_cast<uint8_t>(TypeId::kLob)) {
    return Bad("column '" + column->name + "' has unknown type byte " +
               std::to_string(type));
  }
  if (unique > 1) {
    return Bad("column '" + column->name +
               "' has a declared-unique byte other than 0 or 1");
  }
  column->type = static_cast<TypeId>(type);
  column->declared_unique = unique == 1;
  std::vector<uint64_t>& offsets = column->block_offsets;
  offsets.resize(blocks);
  for (uint64_t& offset : offsets) {
    if (!in.Varint(&offset)) return Truncated("column");
  }
  ColumnStats& stats = column->stats;
  uint8_t flags = 0;
  if (!in.Int64(&stats.non_null_count) || !in.Int64(&stats.distinct_count) ||
      !in.Byte(&flags)) {
    return Truncated("column");
  }
  if ((flags & ~(kHasMin | kHasMax)) != 0) {
    return Bad("column '" + column->name + "' has unknown statistics flags");
  }
  if ((flags & kHasMin) != 0 && !in.String(&stats.min_value.emplace())) {
    return Truncated("column");
  }
  if ((flags & kHasMax) != 0 && !in.String(&stats.max_value.emplace())) {
    return Truncated("column");
  }

  // Readers take each block to end by the next one, the last by the table
  // file's committed end.
  for (size_t b = 0; b < offsets.size(); ++b) {
    if (offsets[b] >= static_cast<uint64_t>(table.file_bytes)) {
      return Bad("column '" + column->name +
                 "' has a block offset past its table file's bytes");
    }
    if (b > 0 && offsets[b] <= offsets[b - 1]) {
      return Bad("column '" + column->name +
                 "' has block offsets that do not ascend");
    }
  }
  // Readers reserve by these counts, so each must fit the column's bytes:
  // every row holds at least one code byte.
  stats.row_count = table.row_count;
  const bool counts_fit =
      0 <= column->bytes && 0 <= stats.distinct_count &&
      stats.distinct_count <= stats.non_null_count &&
      stats.non_null_count <= stats.row_count &&
      stats.row_count <= column->bytes;
  if (!counts_fit) {
    return Bad("column '" + column->name + "' has counts its file cannot hold");
  }
  stats.null_count = stats.row_count - stats.non_null_count;
  stats.verified_unique = stats.non_null_count > 0 &&
                          stats.distinct_count == stats.non_null_count;
  return Status::OK();
}

// Every committed byte of the table file lies in one block of one column,
// so the columns' bytes add up to it and no two columns start a block at
// the same offset.
Status CheckTableBytes(const ManifestTable& table) {
  int64_t unclaimed = table.file_bytes;
  std::vector<uint64_t> offsets;
  for (const ManifestColumn& column : table.columns) {
    if (column.bytes > unclaimed) {
      return Bad("table '" + table.name +
                 "' records more column bytes than its file holds");
    }
    unclaimed -= column.bytes;
    offsets.insert(offsets.end(), column.block_offsets.begin(),
                   column.block_offsets.end());
  }
  if (unclaimed != 0) {
    return Bad("table '" + table.name +
               "' records fewer column bytes than its file holds");
  }
  std::sort(offsets.begin(), offsets.end());
  if (std::adjacent_find(offsets.begin(), offsets.end()) != offsets.end()) {
    return Bad("table '" + table.name +
               "' has a block offset two columns share");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeStoreManifest(const ManifestData& data) {
  std::string out(kMagic);
  out.push_back(kVersion);
  AppendLengthPrefixed(&out, data.catalog_name);
  AppendInt(&out, data.block_bytes);
  EncodeVarint(&out, data.tables.size());
  for (const ManifestTable& table : data.tables) {
    AppendLengthPrefixed(&out, table.name);
    AppendInt(&out, table.row_count);
    AppendLengthPrefixed(&out, table.file_name);
    AppendInt(&out, table.file_bytes);
    EncodeVarint(&out, table.columns.size());
    for (const ManifestColumn& column : table.columns) {
      const ColumnStats& stats = column.stats;
      AppendLengthPrefixed(&out, column.name);
      out.push_back(static_cast<char>(column.type));
      out.push_back(column.declared_unique ? 1 : 0);
      AppendInt(&out, column.bytes);
      EncodeVarint(&out, column.block_offsets.size());
      for (const uint64_t offset : column.block_offsets) {
        EncodeVarint(&out, offset);
      }
      AppendInt(&out, stats.non_null_count);
      AppendInt(&out, stats.distinct_count);
      out.push_back(static_cast<char>((stats.min_value ? kHasMin : 0) |
                                      (stats.max_value ? kHasMax : 0)));
      if (stats.min_value) AppendLengthPrefixed(&out, *stats.min_value);
      if (stats.max_value) AppendLengthPrefixed(&out, *stats.max_value);
    }
  }
  EncodeVarint(&out, data.foreign_keys.size());
  for (const ForeignKey& fk : data.foreign_keys) {
    AppendLengthPrefixed(&out, fk.referencing.table);
    AppendLengthPrefixed(&out, fk.referencing.column);
    AppendLengthPrefixed(&out, fk.referenced.table);
    AppendLengthPrefixed(&out, fk.referenced.column);
  }
  return out;
}

Result<ManifestData> DecodeStoreManifest(std::string_view bytes) {
  const size_t header = kMagic.size() + 1;
  if (bytes.size() < header || bytes.substr(0, kMagic.size()) != kMagic ||
      bytes[kMagic.size()] != kVersion) {
    return Bad("missing or unsupported version header");
  }
  SpanReader in(bytes.substr(header));
  ManifestData data;
  uint64_t count = 0;
  if (!in.String(&data.catalog_name) || !in.Int64(&data.block_bytes) ||
      !in.Count(kMinTableBytes, &count)) {
    return Truncated("catalog");
  }
  data.tables.resize(count);
  for (ManifestTable& table : data.tables) {
    uint64_t columns = 0;
    if (!in.String(&table.name) || !in.Int64(&table.row_count) ||
        !in.String(&table.file_name) || !in.Int64(&table.file_bytes) ||
        !in.Count(kMinColumnBytes, &columns)) {
      return Truncated("table");
    }
    // A table file lives in the workspace itself: a separator, "." or ".."
    // would make a reader open, and an append truncate, a file outside it.
    if (table.file_name.empty() || table.file_name == "." ||
        table.file_name == ".." ||
        table.file_name.find('/') != std::string::npos) {
      return Bad("column file name '" + table.file_name +
                 "' is not a plain file name");
    }
    table.columns.resize(columns);
    for (ManifestColumn& column : table.columns) {
      SPIDER_RETURN_NOT_OK(DecodeColumn(in, table, &column));
    }
    SPIDER_RETURN_NOT_OK(CheckTableBytes(table));
  }
  if (!in.Count(kMinForeignKeyBytes, &count)) return Truncated("foreign key");
  data.foreign_keys.resize(count);
  for (ForeignKey& fk : data.foreign_keys) {
    if (!in.String(&fk.referencing.table) ||
        !in.String(&fk.referencing.column) ||
        !in.String(&fk.referenced.table) || !in.String(&fk.referenced.column)) {
      return Truncated("foreign key");
    }
  }
  if (in.remaining() != 0) return Bad("trailing bytes after the last record");
  return data;
}

}  // namespace spider
