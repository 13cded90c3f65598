#include "src/storage/disk_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>

#include "src/common/logging.h"
#include "src/common/tournament_tree.h"
#include "src/common/string_util.h"
#include "src/common/value_codec.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Block format (all integers LEB128 varints):
//
//   block  := payload_bytes payload
//   payload := row_count dict_count dict_bytes dict codes
//   dict   := (shared_prefix_len suffix_len suffix_bytes)*   — sorted,
//             front-coded against the previous entry
//   codes  := one varint per row; 0 = NULL, k = dict[k - 1]
//
// dict_bytes lets the statistics merge stream a block's dictionary without
// decoding its codes.
// ---------------------------------------------------------------------------

// Decodes one varint from [*pos, end); advances *pos. False on overrun.
bool DecodeBufferVarint(const char** pos, const char* end, uint64_t* out) {
  const char* p = *pos;
  VarintDecode decode = DecodeVarint(
      [&p, end]() -> int {
        if (p >= end) return -1;
        return static_cast<unsigned char>(*p++);
      },
      out);
  if (decode != VarintDecode::kOk) return false;
  *pos = p;
  return true;
}

Status CorruptBlock(const fs::path& path) {
  return Status::IOError("corrupt block in column file " + path.string());
}

// Streaming cursor over one ".col" file: decodes one block at a time; the
// resident footprint is one block's dictionary plus its code bytes.
//
// file_bytes is the manifest-recorded (committed) length, not the on-disk
// length: bytes past it — e.g. the torn tail of an interrupted append —
// are treated as if they did not exist.
class DiskValueCursor final : public ValueCursor {
 public:
  DiskValueCursor(fs::path path, std::ifstream in, int64_t file_bytes)
      : path_(std::move(path)), in_(std::move(in)), file_bytes_(file_bytes) {}

  CursorStep Next(std::string_view* out) override {
    if (!status_.ok()) return CursorStep::kEnd;
    while (rows_left_ == 0) {
      if (!LoadBlock()) return CursorStep::kEnd;
    }
    --rows_left_;
    uint64_t code = 0;
    if (!DecodeBufferVarint(&codes_pos_, codes_end_, &code) ||
        code > dict_.size()) {
      status_ = CorruptBlock(path_);
      return CursorStep::kEnd;
    }
    if (code == 0) return CursorStep::kNull;
    *out = dict_[code - 1];
    return CursorStep::kValue;
  }

  const Status& status() const override { return status_; }

 private:
  // Reads and decodes the next block. False at clean EOF (the committed
  // byte count is exhausted) or on error.
  bool LoadBlock() {
    uint64_t payload_bytes = 0;
    switch (DecodeVarint(
        [this]() {
          if (consumed_ >= file_bytes_) return -1;  // committed bytes end
          const int byte = in_.get();
          if (byte == std::char_traits<char>::eof()) return -1;
          ++consumed_;
          return byte;
        },
        &payload_bytes)) {
      case VarintDecode::kOk:
        break;
      case VarintDecode::kCleanEof:
        return false;
      default:
        status_ = CorruptBlock(path_);
        return false;
    }
    // Bound allocations by the committed bytes before trusting the varint:
    // a corrupt header must surface as a Status, not as std::bad_alloc.
    if (payload_bytes > static_cast<uint64_t>(file_bytes_ - consumed_)) {
      status_ = CorruptBlock(path_);
      return false;
    }
    payload_.resize(payload_bytes);
    in_.read(payload_.data(), static_cast<std::streamsize>(payload_bytes));
    if (static_cast<uint64_t>(in_.gcount()) != payload_bytes) {
      status_ = CorruptBlock(path_);
      return false;
    }
    consumed_ += static_cast<int64_t>(payload_bytes);

    const char* pos = payload_.data();
    const char* end = pos + payload_.size();
    uint64_t rows = 0;
    uint64_t dict_count = 0;
    uint64_t dict_bytes = 0;
    if (!DecodeBufferVarint(&pos, end, &rows) ||
        !DecodeBufferVarint(&pos, end, &dict_count) ||
        !DecodeBufferVarint(&pos, end, &dict_bytes) ||
        dict_bytes > static_cast<uint64_t>(end - pos)) {
      status_ = CorruptBlock(path_);
      return false;
    }
    // Every front-coded entry spends at least two bytes of the dictionary
    // region, so a larger count is corruption (and would over-reserve).
    if (dict_count > dict_bytes / 2) {
      status_ = CorruptBlock(path_);
      return false;
    }
    const char* dict_end = pos + dict_bytes;
    dict_.clear();
    dict_.reserve(dict_count);
    std::string previous;
    for (uint64_t i = 0; i < dict_count; ++i) {
      uint64_t shared = 0;
      uint64_t suffix = 0;
      if (!DecodeBufferVarint(&pos, dict_end, &shared) ||
          !DecodeBufferVarint(&pos, dict_end, &suffix) ||
          shared > previous.size() ||
          suffix > static_cast<uint64_t>(dict_end - pos)) {
        status_ = CorruptBlock(path_);
        return false;
      }
      previous.resize(shared);
      previous.append(pos, suffix);
      pos += suffix;
      dict_.push_back(previous);
    }
    if (pos != dict_end) {
      status_ = CorruptBlock(path_);
      return false;
    }
    codes_pos_ = dict_end;
    codes_end_ = end;
    rows_left_ = rows;
    return true;
  }

  fs::path path_;
  std::ifstream in_;
  int64_t file_bytes_;
  int64_t consumed_ = 0;
  std::vector<char> payload_;
  std::vector<std::string> dict_;
  const char* codes_pos_ = nullptr;
  const char* codes_end_ = nullptr;
  uint64_t rows_left_ = 0;
  Status status_;
};

// Streams one block's front-coded dictionary with a small private read
// window over a shared file stream (one fd per column, however many
// blocks). Entries decode in sorted order.
class DictStreamCursor {
 public:
  DictStreamCursor(std::ifstream* in, int64_t offset, int64_t bytes,
                   int64_t buffer_bytes)
      : in_(in),
        next_offset_(offset),
        bytes_left_(bytes),
        buffer_cap_(std::max<int64_t>(buffer_bytes, 64)) {}

  // Decodes the next entry into current(). False at end of dictionary or
  // on error (check status()).
  bool Next() {
    uint64_t shared = 0;
    uint64_t suffix = 0;
    if (!ReadVarint(&shared)) return false;
    if (!ReadVarint(&suffix)) {
      if (status_.ok()) status_ = Status::IOError("truncated dictionary");
      return false;
    }
    if (shared > current_.size()) {
      status_ = Status::IOError("corrupt dictionary front coding");
      return false;
    }
    current_.resize(shared);
    for (uint64_t i = 0; i < suffix; ++i) {
      const int byte = NextByte();
      if (byte < 0) {
        status_ = Status::IOError("truncated dictionary suffix");
        return false;
      }
      current_.push_back(static_cast<char>(byte));
    }
    return true;
  }

  const std::string& current() const { return current_; }
  const Status& status() const { return status_; }

 private:
  bool ReadVarint(uint64_t* out) {
    switch (DecodeVarint([this]() { return NextByte(); }, out)) {
      case VarintDecode::kOk:
        return true;
      case VarintDecode::kCleanEof:
        return false;
      default:
        status_ = Status::IOError("corrupt dictionary varint");
        return false;
    }
  }

  int NextByte() {
    if (pos_ >= buffer_.size()) {
      if (bytes_left_ <= 0 || !status_.ok()) return -1;
      const int64_t take = std::min<int64_t>(bytes_left_, buffer_cap_);
      buffer_.resize(static_cast<size_t>(take));
      in_->clear();
      in_->seekg(next_offset_);
      in_->read(buffer_.data(), take);
      if (in_->gcount() != take) {
        status_ = Status::IOError("failed reading dictionary bytes");
        return -1;
      }
      next_offset_ += take;
      bytes_left_ -= take;
      pos_ = 0;
    }
    return static_cast<unsigned char>(buffer_[pos_++]);
  }

  std::ifstream* in_;
  int64_t next_offset_;
  int64_t bytes_left_;
  int64_t buffer_cap_;
  std::vector<char> buffer_;
  size_t pos_ = 0;
  std::string current_;
  Status status_;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<int64_t> ParseManifestInt(const std::string& field) {
  char* end = nullptr;
  const long long v = std::strtoll(field.c_str(), &end, 10);
  if (field.empty() || end != field.c_str() + field.size()) {
    return Status::InvalidArgument("bad integer in manifest: '" + field + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseManifestDouble(const std::string& field) {
  char* end = nullptr;
  const double v = std::strtod(field.c_str(), &end);
  if (field.empty() || end != field.c_str() + field.size()) {
    return Status::InvalidArgument("bad double in manifest: '" + field + "'");
  }
  return v;
}

}  // namespace

std::string EscapeManifestField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    switch (c) {
      case '%':
        out += "%25";
        break;
      case '\t':
        out += "%09";
        break;
      case '\n':
        out += "%0A";
        break;
      case '\r':
        out += "%0D";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeManifestField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '%') {
      out += field[i];
      continue;
    }
    if (i + 2 >= field.size()) {
      return Status::InvalidArgument("truncated escape in manifest field");
    }
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(field[i + 1]);
    const int lo = hex(field[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad escape in manifest field");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Manifest records, decoded. Version history:
//   1 — column record arity 18 (fractions only)
//   2 — adds integer letter/digit counts (arity 20) so appends can continue
//       the running totals exactly; v1 files reconstruct the counts from
//       the fractions on read and are upgraded on the next write.
// ---------------------------------------------------------------------------

struct ManifestColumn {
  std::string name;
  TypeId type = TypeId::kString;
  bool declared_unique = false;
  std::string file_name;
  int64_t file_bytes = 0;
  int64_t block_count = 0;
  ColumnStats stats;
};

struct ManifestTable {
  std::string name;
  int64_t row_count = 0;
  std::vector<ManifestColumn> columns;
};

struct ManifestData {
  std::string catalog_name;
  int64_t block_bytes = 0;
  std::vector<ManifestTable> tables;
  std::vector<ForeignKey> foreign_keys;
};

Result<ManifestData> ParseManifest(const fs::path& dir) {
  const fs::path path = dir / kDiskStoreManifestName;
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open manifest " + path.string() +
                           " (not a disk-store workspace?)");
  }

  auto bad = [&path](const std::string& why) {
    return Status::InvalidArgument("manifest " + path.string() + ": " + why);
  };

  std::string line;
  if (!std::getline(in, line)) {
    return bad("missing or unsupported version header");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != "spider-store\t2") {
    return bad("missing or unsupported version header");
  }

  ManifestData data;
  bool saw_catalog = false;
  bool saw_end = false;
  ManifestTable* table = nullptr;

  auto flush_table = [&]() -> Status {
    if (table == nullptr) return Status::OK();
    const int64_t stored_rows =
        table->columns.empty() ? 0 : table->columns.front().stats.row_count;
    for (const ManifestColumn& column : table->columns) {
      if (column.stats.row_count != stored_rows) {
        return Status::InvalidArgument("table '" + table->name +
                                       "' row count mismatch in manifest");
      }
    }
    if (stored_rows != table->row_count) {
      return Status::InvalidArgument("table '" + table->name +
                                     "' row count mismatch in manifest");
    }
    table = nullptr;
    return Status::OK();
  };

  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> raw = SplitString(line, '\t');
    std::vector<std::string> fields;
    fields.reserve(raw.size());
    for (const std::string& f : raw) {
      SPIDER_ASSIGN_OR_RETURN(std::string unescaped, UnescapeManifestField(f));
      fields.push_back(std::move(unescaped));
    }
    const std::string& kind = fields[0];
    if (kind == "catalog") {
      if (fields.size() != 2) return bad("catalog record arity");
      data.catalog_name = fields[1];
      saw_catalog = true;
    } else if (kind == "blocksize") {
      if (fields.size() != 2) return bad("blocksize record arity");
      SPIDER_ASSIGN_OR_RETURN(data.block_bytes, ParseManifestInt(fields[1]));
    } else if (kind == "table") {
      if (!saw_catalog) return bad("table before catalog");
      if (fields.size() != 3) return bad("table record arity");
      SPIDER_RETURN_NOT_OK(flush_table());
      data.tables.emplace_back();
      table = &data.tables.back();
      table->name = fields[1];
      SPIDER_ASSIGN_OR_RETURN(table->row_count, ParseManifestInt(fields[2]));
    } else if (kind == "column") {
      if (table == nullptr) return bad("column before table");
      if (fields.size() != 20) return bad("column record arity");
      ManifestColumn column;
      column.name = fields[1];
      SPIDER_ASSIGN_OR_RETURN(column.type, TypeIdFromString(fields[2]));
      SPIDER_ASSIGN_OR_RETURN(int64_t unique, ParseManifestInt(fields[3]));
      column.declared_unique = unique != 0;
      column.file_name = fields[4];
      SPIDER_ASSIGN_OR_RETURN(column.file_bytes, ParseManifestInt(fields[5]));
      SPIDER_ASSIGN_OR_RETURN(column.block_count, ParseManifestInt(fields[6]));
      ColumnStats& stats = column.stats;
      SPIDER_ASSIGN_OR_RETURN(stats.row_count, ParseManifestInt(fields[7]));
      SPIDER_ASSIGN_OR_RETURN(stats.non_null_count,
                              ParseManifestInt(fields[8]));
      stats.null_count = stats.row_count - stats.non_null_count;
      SPIDER_ASSIGN_OR_RETURN(stats.distinct_count,
                              ParseManifestInt(fields[9]));
      if (fields[10] == "1") stats.min_value = fields[11];
      if (fields[12] == "1") stats.max_value = fields[13];
      SPIDER_ASSIGN_OR_RETURN(stats.min_length, ParseManifestInt(fields[14]));
      SPIDER_ASSIGN_OR_RETURN(stats.max_length, ParseManifestInt(fields[15]));
      SPIDER_ASSIGN_OR_RETURN(stats.letter_fraction,
                              ParseManifestDouble(fields[16]));
      SPIDER_ASSIGN_OR_RETURN(stats.digit_fraction,
                              ParseManifestDouble(fields[17]));
      SPIDER_ASSIGN_OR_RETURN(stats.letter_count,
                              ParseManifestInt(fields[18]));
      SPIDER_ASSIGN_OR_RETURN(stats.digit_count, ParseManifestInt(fields[19]));
      stats.verified_unique = stats.non_null_count > 0 &&
                              stats.distinct_count == stats.non_null_count;
      const fs::path file = dir / column.file_name;
      std::error_code ec;
      if (!fs::is_regular_file(file, ec)) {
        return Status::IOError("missing column file " + file.string());
      }
      table->columns.push_back(std::move(column));
    } else if (kind == "fk") {
      if (!saw_catalog) return bad("fk before catalog");
      if (fields.size() != 5) return bad("fk record arity");
      SPIDER_RETURN_NOT_OK(flush_table());
      data.foreign_keys.push_back(
          ForeignKey{{fields[1], fields[2]}, {fields[3], fields[4]}});
    } else if (kind == "end") {
      saw_end = true;
      break;
    } else {
      return bad("unknown record '" + kind + "'");
    }
  }
  if (!saw_catalog) return bad("no catalog record");
  if (!saw_end) return bad("truncated (no end record)");
  SPIDER_RETURN_NOT_OK(flush_table());
  return data;
}

}  // namespace

Result<std::unique_ptr<ValueCursor>> DiskColumnStore::OpenCursor() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open column file " + path_.string());
  }
  // Scan exactly the manifest-recorded bytes, not the on-disk size: a torn
  // append may have left extra bytes past the committed length, and those
  // must stay invisible until a manifest rename commits them.
  return std::unique_ptr<ValueCursor>(std::make_unique<DiskValueCursor>(
      path_, std::move(in), file_bytes_));
}

// ---------------------------------------------------------------------------
// ColumnWriter: accumulates one block at a time and flushes it compressed.
// ---------------------------------------------------------------------------

class DiskCatalogWriter::ColumnWriter {
 public:
  ColumnWriter(std::string name, TypeId type, bool declared_unique,
               fs::path path, const DiskStoreOptions& options)
      : name_(std::move(name)),
        type_(type),
        declared_unique_(declared_unique),
        path_(std::move(path)),
        options_(options) {}

  const std::string& name() const { return name_; }
  TypeId type() const { return type_; }
  bool declared_unique() const { return declared_unique_; }

  Status Open() {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      return Status::IOError("cannot create column file " + path_.string());
    }
    return Status::OK();
  }

  /// Reopens an existing sealed column for appending. `committed_bytes` is
  /// the manifest-recorded length: any bytes past it (the torn tail of an
  /// interrupted append) are truncated away, then the committed blocks are
  /// rescanned header-by-header to rebuild the dictionary-region index the
  /// seal-time statistics merge needs. Running totals (row/null/length/
  /// letter/digit) continue from `old_stats`; distinct/min/max are cleared
  /// here and recomputed over all blocks — old and new — at Seal().
  Status OpenForAppend(int64_t committed_bytes, ColumnStats old_stats) {
    std::error_code ec;
    const auto on_disk = fs::file_size(path_, ec);
    if (ec) {
      return Status::IOError("cannot stat column file " + path_.string());
    }
    if (static_cast<int64_t>(on_disk) < committed_bytes) {
      return Status::IOError("column file " + path_.string() +
                             " is shorter than its manifest record");
    }
    if (static_cast<int64_t>(on_disk) > committed_bytes) {
      fs::resize_file(path_, static_cast<uintmax_t>(committed_bytes), ec);
      if (ec) {
        return Status::IOError("cannot truncate torn tail of " +
                               path_.string() + ": " + ec.message());
      }
    }
    SPIDER_RETURN_NOT_OK(RescanDictRegions(committed_bytes));
    file_bytes_ = committed_bytes;
    stats_ = std::move(old_stats);
    with_letter_ = stats_.letter_count;
    all_digits_ = stats_.digit_count;
    stats_.distinct_count = 0;
    stats_.min_value.reset();
    stats_.max_value.reset();
    stats_.verified_unique = false;
    out_.open(path_, std::ios::binary | std::ios::in | std::ios::out);
    if (!out_) {
      return Status::IOError("cannot reopen column file " + path_.string() +
                             " for append");
    }
    out_.seekp(committed_bytes);
    if (!out_) {
      return Status::IOError("cannot seek to end of " + path_.string());
    }
    return Status::OK();
  }

  Status Append(const Value& v) {
    ++stats_.row_count;
    if (v.is_null()) {
      ++stats_.null_count;
      block_codes_.push_back(0);
      pending_bytes_ += 1;
    } else {
      ++stats_.non_null_count;
      std::string canon = v.ToCanonicalString();
      const int64_t len = static_cast<int64_t>(canon.size());
      if (stats_.non_null_count == 1) {
        stats_.min_length = len;
        stats_.max_length = len;
      } else {
        stats_.min_length = std::min(stats_.min_length, len);
        stats_.max_length = std::max(stats_.max_length, len);
      }
      if (ContainsLetter(canon)) ++with_letter_;
      if (IsAllDigits(canon)) ++all_digits_;
      auto [it, inserted] =
          block_dict_.emplace(std::move(canon), block_dict_.size() + 1);
      if (inserted) pending_bytes_ += static_cast<int64_t>(it->first.size());
      block_codes_.push_back(it->second);
      pending_bytes_ += 4;
    }
    if (pending_bytes_ >= options_.block_bytes) return FlushBlock();
    return Status::OK();
  }

  /// Flushes the tail block, closes the file and computes the seal-time
  /// statistics (exact distinct count / min / max via a k-way merge of the
  /// per-block sorted dictionaries). Returns the sealed read-only store.
  Result<std::unique_ptr<ColumnStore>> Seal() {
    SPIDER_RETURN_NOT_OK(FlushBlock());
    out_.close();
    if (out_.fail()) {
      return Status::IOError("failed writing column file " + path_.string());
    }
    SPIDER_RETURN_NOT_OK(ComputeDistinctStats());
    stats_.verified_unique = stats_.non_null_count > 0 &&
                             stats_.distinct_count == stats_.non_null_count;
    stats_.letter_count = with_letter_;
    stats_.digit_count = all_digits_;
    if (stats_.non_null_count > 0) {
      stats_.letter_fraction = static_cast<double>(with_letter_) /
                               static_cast<double>(stats_.non_null_count);
      stats_.digit_fraction = static_cast<double>(all_digits_) /
                              static_cast<double>(stats_.non_null_count);
    }
    return std::unique_ptr<ColumnStore>(std::make_unique<DiskColumnStore>(
        path_, stats_, file_bytes_, static_cast<int64_t>(dicts_.size())));
  }

  const ColumnStats& stats() const { return stats_; }
  int64_t file_bytes() const { return file_bytes_; }
  int64_t block_count() const { return static_cast<int64_t>(dicts_.size()); }
  const fs::path& path() const { return path_; }

 private:
  struct DictRegion {
    int64_t offset = 0;  // absolute file offset of the front-coded dict
    int64_t bytes = 0;
  };

  Status FlushBlock() {
    if (block_codes_.empty()) return Status::OK();

    // The per-block dictionary is sorted; remap arrival codes to sorted
    // codes (NULL keeps code 0).
    std::vector<uint64_t> arrival_to_sorted(block_dict_.size() + 1, 0);
    std::string dict;
    {
      uint64_t sorted_code = 1;
      std::string_view previous;
      for (const auto& [value, arrival_code] : block_dict_) {
        size_t shared = 0;
        const size_t limit = std::min(previous.size(), value.size());
        while (shared < limit && previous[shared] == value[shared]) ++shared;
        EncodeVarint(&dict, shared);
        EncodeVarint(&dict, value.size() - shared);
        dict.append(value, shared, value.size() - shared);
        arrival_to_sorted[arrival_code] = sorted_code++;
        previous = value;
      }
    }

    std::string payload;
    payload.reserve(dict.size() + block_codes_.size() * 2 + 32);
    EncodeVarint(&payload, block_codes_.size());
    EncodeVarint(&payload, block_dict_.size());
    EncodeVarint(&payload, dict.size());
    const size_t dict_offset_in_payload = payload.size();
    payload += dict;
    for (uint64_t arrival_code : block_codes_) {
      EncodeVarint(&payload, arrival_to_sorted[arrival_code]);
    }

    std::string header;
    EncodeVarint(&header, payload.size());
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out_) {
      return Status::IOError("failed writing block to " + path_.string());
    }
    dicts_.push_back(DictRegion{
        file_bytes_ + static_cast<int64_t>(header.size()) +
            static_cast<int64_t>(dict_offset_in_payload),
        static_cast<int64_t>(dict.size())});
    file_bytes_ += static_cast<int64_t>(header.size() + payload.size());

    block_dict_.clear();
    block_codes_.clear();
    pending_bytes_ = 0;
    return Status::OK();
  }

  // Exact distinct count and global min/max from the sorted per-block
  // dictionaries: a loser-tree k-way merge over small streaming windows —
  // one shared fd, block_count × stats_merge_buffer_bytes of memory.
  Status ComputeDistinctStats() {
    if (dicts_.empty()) return Status::OK();
    std::ifstream in(path_, std::ios::binary);
    if (!in) {
      return Status::IOError("cannot reopen column file " + path_.string());
    }
    std::vector<DictStreamCursor> cursors;
    cursors.reserve(dicts_.size());
    for (const DictRegion& region : dicts_) {
      cursors.emplace_back(&in, region.offset, region.bytes,
                           options_.stats_merge_buffer_bytes);
    }
    auto less = [&cursors](int a, int b) {
      const std::string& va = cursors[static_cast<size_t>(a)].current();
      const std::string& vb = cursors[static_cast<size_t>(b)].current();
      if (va != vb) return va < vb;
      return a < b;
    };
    TournamentTree<decltype(less)> tree(static_cast<int>(cursors.size()),
                                        less);
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (cursors[i].Next()) {
        tree.Push(static_cast<int>(i));
      } else {
        SPIDER_RETURN_NOT_OK(cursors[i].status());
      }
    }
    std::optional<std::string> last;
    while (!tree.empty()) {
      const int slot = tree.top();
      DictStreamCursor& cursor = cursors[static_cast<size_t>(slot)];
      if (!last || *last < cursor.current()) {
        ++stats_.distinct_count;
        if (!stats_.min_value) stats_.min_value = cursor.current();
        last = cursor.current();
      }
      if (cursor.Next()) {
        tree.Refresh();
      } else {
        SPIDER_RETURN_NOT_OK(cursor.status());
        tree.Pop();
      }
    }
    stats_.max_value = last;
    return Status::OK();
  }

  // Rebuilds the DictRegion index of an already-sealed file by walking the
  // committed block headers (header varint + the three payload-head varints
  // locate each dictionary; the codes are seeked over, never decoded).
  Status RescanDictRegions(int64_t committed_bytes) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) {
      return Status::IOError("cannot reopen column file " + path_.string());
    }
    int64_t pos = 0;
    while (pos < committed_bytes) {
      in.clear();
      in.seekg(pos);
      int64_t consumed = 0;
      auto next_byte = [&]() -> int {
        if (pos + consumed >= committed_bytes) return -1;
        const int byte = in.get();
        if (byte == std::char_traits<char>::eof()) return -1;
        ++consumed;
        return byte;
      };
      uint64_t payload_bytes = 0;
      if (DecodeVarint(next_byte, &payload_bytes) != VarintDecode::kOk) {
        return CorruptBlock(path_);
      }
      const int64_t header_bytes = consumed;
      if (payload_bytes >
          static_cast<uint64_t>(committed_bytes - pos - header_bytes)) {
        return CorruptBlock(path_);
      }
      uint64_t rows = 0;
      uint64_t dict_count = 0;
      uint64_t dict_bytes = 0;
      if (DecodeVarint(next_byte, &rows) != VarintDecode::kOk ||
          DecodeVarint(next_byte, &dict_count) != VarintDecode::kOk ||
          DecodeVarint(next_byte, &dict_bytes) != VarintDecode::kOk) {
        return CorruptBlock(path_);
      }
      const int64_t head_bytes = consumed - header_bytes;
      if (static_cast<uint64_t>(head_bytes) > payload_bytes ||
          dict_bytes > payload_bytes - static_cast<uint64_t>(head_bytes)) {
        return CorruptBlock(path_);
      }
      dicts_.push_back(DictRegion{pos + header_bytes + head_bytes,
                                  static_cast<int64_t>(dict_bytes)});
      pos += header_bytes + static_cast<int64_t>(payload_bytes);
    }
    return Status::OK();
  }

  std::string name_;
  TypeId type_;
  bool declared_unique_;
  fs::path path_;
  const DiskStoreOptions& options_;
  std::ofstream out_;

  // Current block: distinct values mapped to 1-based arrival codes, plus
  // the per-row arrival codes (0 = NULL).
  std::map<std::string, uint64_t> block_dict_;
  std::vector<uint64_t> block_codes_;
  int64_t pending_bytes_ = 0;

  std::vector<DictRegion> dicts_;
  int64_t file_bytes_ = 0;
  ColumnStats stats_;
  int64_t with_letter_ = 0;
  int64_t all_digits_ = 0;
};

// ---------------------------------------------------------------------------
// DiskCatalogWriter
// ---------------------------------------------------------------------------

// Append-session bookkeeping: what the workspace held before, which tables
// this session resealed, and which it created.
struct DiskCatalogWriter::AppendState {
  ManifestData previous;
  std::map<std::string, size_t> previous_index;  // table name → previous idx
  // Tables sealed this session (appended-to or new), by name.
  std::map<std::string, std::unique_ptr<Table>> sealed;
  // Names of brand-new tables, in creation order (appended-to tables keep
  // their original manifest position).
  std::vector<std::string> new_tables;
  std::vector<ForeignKey> declared_fks;
  // The previous state of the table currently open in append mode; null
  // when the open table is new.
  const ManifestTable* appending = nullptr;
  size_t next_column = 0;
};

DiskCatalogWriter::DiskCatalogWriter(fs::path dir, std::string catalog_name,
                                     DiskStoreOptions options)
    : dir_(std::move(dir)),
      options_(options),
      catalog_(std::make_unique<Catalog>(std::move(catalog_name))) {}

DiskCatalogWriter::~DiskCatalogWriter() = default;

Result<std::unique_ptr<DiskCatalogWriter>> DiskCatalogWriter::Create(
    fs::path dir, std::string catalog_name, DiskStoreOptions options) {
  if (options.block_bytes < 1024) {
    return Status::InvalidArgument("block_bytes must be >= 1024");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create workspace " + dir.string() + ": " +
                           ec.message());
  }
  if (fs::exists(dir / kDiskStoreManifestName)) {
    return Status::AlreadyExists("workspace " + dir.string() +
                                 " already holds a disk store");
  }
  return std::unique_ptr<DiskCatalogWriter>(new DiskCatalogWriter(
      std::move(dir), std::move(catalog_name), options));
}

Result<std::unique_ptr<DiskCatalogWriter>> DiskCatalogWriter::OpenForAppend(
    fs::path dir, DiskStoreOptions options) {
  SPIDER_ASSIGN_OR_RETURN(ManifestData previous, ParseManifest(dir));
  // Keep the workspace's original block size so every block in a chain
  // obeys the same bound.
  if (previous.block_bytes >= 1024) options.block_bytes = previous.block_bytes;
  auto writer = std::unique_ptr<DiskCatalogWriter>(new DiskCatalogWriter(
      std::move(dir), previous.catalog_name, options));
  writer->append_ = std::make_unique<AppendState>();
  writer->append_->previous = std::move(previous);
  const auto& tables = writer->append_->previous.tables;
  for (size_t i = 0; i < tables.size(); ++i) {
    writer->append_->previous_index.emplace(tables[i].name, i);
  }
  return writer;
}

Status DiskCatalogWriter::BeginTable(const std::string& name) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (table_open_) return Status::InvalidArgument("previous table not finished");
  if (catalog_->FindTable(name) != nullptr ||
      (append_ != nullptr && append_->sealed.count(name) != 0)) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  if (append_ != nullptr) {
    const auto it = append_->previous_index.find(name);
    append_->appending =
        it == append_->previous_index.end()
            ? nullptr
            : &append_->previous.tables[it->second];
    append_->next_column = 0;
  }
  table_name_ = name;
  column_writers_.clear();
  table_rows_ = 0;
  table_open_ = true;
  return Status::OK();
}

Status DiskCatalogWriter::AddColumn(std::string name, TypeId type,
                                    bool declared_unique) {
  if (!table_open_) return Status::InvalidArgument("no open table");
  if (table_rows_ > 0) {
    return Status::InvalidArgument("cannot add column '" + name +
                                   "' after rows were appended");
  }
  for (const auto& writer : column_writers_) {
    if (writer->name() == name) {
      return Status::AlreadyExists("column '" + name + "' already exists in '" +
                                   table_name_ + "'");
    }
  }
  if (append_ != nullptr && append_->appending != nullptr) {
    // Appending to an existing table: the schema is fixed; columns must be
    // re-declared in their sealed order and keep their sealed type.
    const ManifestTable& previous = *append_->appending;
    if (append_->next_column >= previous.columns.size()) {
      return Status::InvalidArgument(
          "append declares column '" + name + "' beyond the " +
          std::to_string(previous.columns.size()) + " sealed columns of '" +
          table_name_ + "'");
    }
    const ManifestColumn& old = previous.columns[append_->next_column];
    if (old.name != name) {
      return Status::InvalidArgument("append column order mismatch in '" +
                                     table_name_ + "': expected '" + old.name +
                                     "', got '" + name + "'");
    }
    const bool compatible =
        type == old.type || old.type == TypeId::kString ||
        old.type == TypeId::kLob ||
        (old.type == TypeId::kDouble && type == TypeId::kInteger);
    if (!compatible) {
      return Status::InvalidArgument(
          "appended values of type " + std::string(TypeIdToString(type)) +
          " do not fit sealed column '" + name + "' of type " +
          std::string(TypeIdToString(old.type)) + " in '" + table_name_ + "'");
    }
    ++append_->next_column;
    auto writer = std::make_unique<ColumnWriter>(
        std::move(name), old.type, old.declared_unique, dir_ / old.file_name,
        options_);
    SPIDER_RETURN_NOT_OK(writer->OpenForAppend(old.file_bytes, old.stats));
    column_writers_.push_back(std::move(writer));
    return Status::OK();
  }
  const fs::path path =
      dir_ / (AttributeFileStem(AttributeRef{table_name_, name}) + ".col");
  auto writer = std::make_unique<ColumnWriter>(std::move(name), type,
                                               declared_unique, path, options_);
  SPIDER_RETURN_NOT_OK(writer->Open());
  column_writers_.push_back(std::move(writer));
  return Status::OK();
}

Status DiskCatalogWriter::AppendRow(std::vector<Value> row) {
  if (!table_open_) return Status::InvalidArgument("no open table");
  if (row.size() != column_writers_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match table '" +
        table_name_ + "' with " + std::to_string(column_writers_.size()) +
        " columns");
  }
  if (append_ != nullptr && append_->appending != nullptr) {
    // Widen where safe: a later batch may infer a narrower type than the
    // sealed column (e.g. an all-digit CSV batch for a string column).
    for (size_t i = 0; i < row.size(); ++i) {
      Value& v = row[i];
      if (v.is_null()) continue;
      const TypeId t = column_writers_[i]->type();
      if ((t == TypeId::kString || t == TypeId::kLob) && !v.is_string()) {
        v = Value::String(v.ToCanonicalString());
      } else if (t == TypeId::kDouble && v.is_integer()) {
        v = Value::Double(static_cast<double>(v.integer()));
      }
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) continue;
    const TypeId t = column_writers_[i]->type();
    const bool matches =
        (t == TypeId::kInteger && v.is_integer()) ||
        (t == TypeId::kDouble && v.is_double()) ||
        ((t == TypeId::kString || t == TypeId::kLob) && v.is_string());
    if (!matches) {
      return Status::InvalidArgument("value type mismatch in column '" +
                                     column_writers_[i]->name() +
                                     "' of table '" + table_name_ + "'");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    SPIDER_RETURN_NOT_OK(column_writers_[i]->Append(row[i]));
  }
  ++table_rows_;
  return Status::OK();
}

Status DiskCatalogWriter::FinishTable() {
  if (!table_open_) return Status::InvalidArgument("no open table");
  if (append_ != nullptr && append_->appending != nullptr &&
      append_->next_column != append_->appending->columns.size()) {
    return Status::InvalidArgument(
        "append to '" + table_name_ + "' declared " +
        std::to_string(append_->next_column) + " of " +
        std::to_string(append_->appending->columns.size()) +
        " sealed columns");
  }
  auto table = std::make_unique<Table>(table_name_);
  for (auto& writer : column_writers_) {
    SPIDER_ASSIGN_OR_RETURN(std::unique_ptr<ColumnStore> store, writer->Seal());
    SPIDER_RETURN_NOT_OK(table->AttachStoredColumn(
        writer->name(), writer->type(), writer->declared_unique(),
        std::move(store)));
  }
  if (append_ != nullptr) {
    if (append_->appending == nullptr) {
      append_->new_tables.push_back(table_name_);
    }
    append_->sealed.emplace(table_name_, std::move(table));
    append_->appending = nullptr;
  } else {
    SPIDER_RETURN_NOT_OK(catalog_->AddTable(std::move(table)));
  }
  column_writers_.clear();
  table_open_ = false;
  return Status::OK();
}

void DiskCatalogWriter::DeclareForeignKey(ForeignKey fk) {
  if (append_ != nullptr) {
    append_->declared_fks.push_back(std::move(fk));
    return;
  }
  catalog_->DeclareForeignKey(std::move(fk));
}

Status DiskCatalogWriter::WriteManifest() const {
  const fs::path path = dir_ / kDiskStoreManifestName;
  // Write-then-rename: the rename is the commit point. Readers either see
  // the old manifest (with the old byte counts, so appended tail bytes are
  // invisible) or the complete new one — never a torn manifest.
  const fs::path tmp =
      dir_ / (std::string(kDiskStoreManifestName) + ".tmp");
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return Status::IOError("cannot create manifest " + tmp.string());

  auto field = [](std::string_view s) { return EscapeManifestField(s); };
  out << "spider-store\t2\n";
  out << "catalog\t" << field(catalog_->name()) << "\n";
  out << "blocksize\t" << options_.block_bytes << "\n";
  for (int t = 0; t < catalog_->table_count(); ++t) {
    const Table& table = catalog_->table(t);
    out << "table\t" << field(table.name()) << "\t" << table.row_count()
        << "\n";
    for (int c = 0; c < table.column_count(); ++c) {
      const Column& column = table.column(c);
      const auto* store =
          dynamic_cast<const DiskColumnStore*>(&column.store());
      SPIDER_CHECK(store != nullptr);
      const ColumnStats& stats = *store->cached_stats();
      out << "column\t" << field(column.name()) << "\t"
          << TypeIdToString(column.type()) << "\t"
          << (column.declared_unique() ? 1 : 0) << "\t"
          << field(store->path().filename().string()) << "\t"
          << store->ApproximateByteSize() << "\t" << store->block_count()
          << "\t" << stats.row_count << "\t" << stats.non_null_count << "\t"
          << stats.distinct_count << "\t"
          << (stats.min_value ? "1\t" + field(*stats.min_value) : "0\t")
          << "\t"
          << (stats.max_value ? "1\t" + field(*stats.max_value) : "0\t")
          << "\t" << stats.min_length << "\t" << stats.max_length << "\t"
          << FormatDouble(stats.letter_fraction) << "\t"
          << FormatDouble(stats.digit_fraction) << "\t" << stats.letter_count
          << "\t" << stats.digit_count << "\n";
    }
  }
  for (const ForeignKey& fk : catalog_->declared_foreign_keys()) {
    out << "fk\t" << field(fk.referencing.table) << "\t"
        << field(fk.referencing.column) << "\t" << field(fk.referenced.table)
        << "\t" << field(fk.referenced.column) << "\n";
  }
  out << "end\n";
  out.close();
  if (out.fail()) {
    return Status::IOError("failed writing manifest " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot commit manifest " + path.string() + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::unique_ptr<Catalog>> DiskCatalogWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (table_open_) return Status::InvalidArgument("table not finished");
  finished_ = true;
  if (append_ != nullptr) {
    // Merge: previous tables keep their manifest order (resealed ones swap
    // in), new tables follow, then previous plus newly declared FKs.
    auto merged = std::make_unique<Catalog>(append_->previous.catalog_name);
    for (ManifestTable& previous : append_->previous.tables) {
      auto it = append_->sealed.find(previous.name);
      if (it != append_->sealed.end()) {
        SPIDER_RETURN_NOT_OK(merged->AddTable(std::move(it->second)));
        continue;
      }
      auto table = std::make_unique<Table>(previous.name);
      for (ManifestColumn& column : previous.columns) {
        auto store = std::make_unique<DiskColumnStore>(
            dir_ / column.file_name, std::move(column.stats),
            column.file_bytes, column.block_count);
        SPIDER_RETURN_NOT_OK(table->AttachStoredColumn(
            column.name, column.type, column.declared_unique,
            std::move(store)));
      }
      SPIDER_RETURN_NOT_OK(merged->AddTable(std::move(table)));
    }
    for (const std::string& name : append_->new_tables) {
      SPIDER_RETURN_NOT_OK(merged->AddTable(std::move(append_->sealed.at(name))));
    }
    for (ForeignKey& fk : append_->previous.foreign_keys) {
      merged->DeclareForeignKey(std::move(fk));
    }
    for (ForeignKey& fk : append_->declared_fks) {
      merged->DeclareForeignKey(std::move(fk));
    }
    catalog_ = std::move(merged);
  }
  SPIDER_RETURN_NOT_OK(WriteManifest());
  return std::move(catalog_);
}

// ---------------------------------------------------------------------------
// Reopening a workspace
// ---------------------------------------------------------------------------

bool IsDiskCatalogDir(const fs::path& dir) {
  std::error_code ec;
  return fs::is_regular_file(dir / kDiskStoreManifestName, ec);
}

Result<std::unique_ptr<Catalog>> OpenDiskCatalog(const fs::path& dir) {
  SPIDER_ASSIGN_OR_RETURN(ManifestData data, ParseManifest(dir));
  auto catalog = std::make_unique<Catalog>(data.catalog_name);
  for (ManifestTable& manifest_table : data.tables) {
    auto table = std::make_unique<Table>(manifest_table.name);
    for (ManifestColumn& column : manifest_table.columns) {
      auto store = std::make_unique<DiskColumnStore>(
          dir / column.file_name, std::move(column.stats), column.file_bytes,
          column.block_count);
      SPIDER_RETURN_NOT_OK(table->AttachStoredColumn(
          column.name, column.type, column.declared_unique, std::move(store)));
    }
    SPIDER_RETURN_NOT_OK(catalog->AddTable(std::move(table)));
  }
  for (ForeignKey& fk : data.foreign_keys) {
    catalog->DeclareForeignKey(std::move(fk));
  }
  return catalog;
}

}  // namespace spider
