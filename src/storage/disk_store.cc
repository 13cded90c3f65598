#include "src/storage/disk_store.h"

#include <fcntl.h>
#include <sys/file.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <set>
#include <span>

#include "src/common/file_io.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/common/tournament_tree.h"
#include "src/common/value_codec.h"
#include "src/storage/store_manifest.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Block format (all integers LEB128 varints):
//
//   table file := block*   — every column's blocks, in the order they were
//                            flushed; the manifest records each block's
//                            offset under its column
//   block  := payload_bytes payload
//   payload := row_count dict_count dict_bytes dict codes
//   dict   := (shared_prefix_len suffix_len suffix_bytes)*   — sorted,
//             front-coded against the previous entry
//   codes  := one varint per row; 0 = NULL, k = dict[k - 1]
//
// dict_bytes lets the statistics merge stream a block's dictionary without
// decoding its codes.
//
// The format has one reader, its two decoders below, both over SpanReader:
// ReadBlockHead locates a block's parts and DictReader decodes its
// dictionary, each entry strictly after the one before. The scan cursor
// uses both, the append path's rescan the first, and MergeDictionaries —
// the seal-time statistics and a sealed column's sorted distinct values —
// both. Whatever damage they meet is one IOError naming the file
// (CorruptBlock).
// ---------------------------------------------------------------------------

Status CorruptBlock(const fs::path& path) {
  return Status::IOError("corrupt block in column file " + path.string());
}

// Where a block's front-coded dictionary lies in its table file.
struct DictRegion {
  uint64_t offset = 0;  // absolute file offset
  uint64_t bytes = 0;
  uint64_t count = 0;   // entries
};

// Where one block's parts lie in its table file.
struct BlockHead {
  uint64_t rows = 0;
  DictRegion dict;
  uint64_t codes_offset = 0;  // absolute file offset
  uint64_t end = 0;           // one past the block: the next block's offset
};

// The most bytes a block head takes: four varints of at most ten bytes.
constexpr size_t kMaxBlockHeadBytes = 40;

// Decodes the head of the block at `offset` of a table file, a block that
// must end by `limit`. False when it cannot be read or does not fit: the
// payload must end by `limit`, the dictionary within the payload, and every
// dictionary entry (at least two bytes) and row code (at least one) within
// its span.
bool ReadBlockHead(int fd, uint64_t offset, uint64_t limit, BlockHead* head) {
  if (offset >= limit) return false;
  char bytes[kMaxBlockHeadBytes];
  const size_t length = static_cast<size_t>(
      std::min<uint64_t>(kMaxBlockHeadBytes, limit - offset));
  if (!PreadExact(fd, offset, bytes, length)) return false;
  SpanReader in(std::string_view(bytes, length));
  uint64_t payload_bytes = 0;
  if (!in.Varint(&payload_bytes) ||
      payload_bytes > limit - offset - in.position()) {
    return false;
  }
  head->end = offset + in.position() + payload_bytes;
  if (!in.Varint(&head->rows) || !in.Varint(&head->dict.count) ||
      !in.Varint(&head->dict.bytes)) {
    return false;
  }
  head->dict.offset = offset + in.position();
  if (head->dict.offset > head->end ||
      head->dict.bytes > head->end - head->dict.offset ||
      head->dict.count > head->dict.bytes / 2) {
    return false;
  }
  head->codes_offset = head->dict.offset + head->dict.bytes;
  return head->rows <= head->end - head->codes_offset;
}

// Where block `b` of a column whose blocks start at `offsets` must end: at
// the column's next block, or for its last one at the table file's
// committed end. Other columns' blocks may lie in between.
uint64_t BlockLimit(const std::vector<uint64_t>& offsets, size_t b,
                    uint64_t table_bytes) {
  return b + 1 < offsets.size() ? offsets[b + 1] : table_bytes;
}

// Decodes one block's dictionary entry by entry, in sorted order, through
// a read window of `window_bytes` (grown for an entry that needs more)
// filled by pread on a descriptor the caller keeps open.
class DictReader {
 public:
  DictReader(int fd, const DictRegion& region, size_t window_bytes)
      : fd_(fd),
        next_offset_(region.offset),
        region_left_(region.bytes),
        entries_left_(region.count),
        window_bytes_(std::max<size_t>(window_bytes, 64)) {}

  // Decodes the next entry into current(). False once every entry is read,
  // or when the region is damaged (ok() tells the two apart): it must hold
  // exactly its entries, each sharing no more than the previous one holds
  // and sorting after it.
  bool Next() {
    if (entries_left_ == 0) {
      damaged_ = damaged_ || region_left_ > 0 || pos_ < window_.size();
      return false;
    }
    while (true) {
      SpanReader in(std::string_view(window_).substr(pos_));
      uint64_t shared = 0;
      uint64_t suffix = 0;
      std::string_view bytes;
      if (in.Varint(&shared) && in.Varint(&suffix) &&
          in.Bytes(suffix, &bytes)) {
        // The entry keeps the previous one's first `shared` bytes, so it
        // sorts after it exactly when `bytes` sorts after the rest.
        if (shared > current_.size() ||
            (decoded_ && bytes <= std::string_view(current_).substr(shared))) {
          break;
        }
        current_.resize(shared);
        current_.append(bytes);
        pos_ += in.position();
        --entries_left_;
        decoded_ = true;
        return true;
      }
      // The entry runs past the window: read on, enough for its suffix.
      if (region_left_ == 0 || !Refill(suffix)) break;
    }
    damaged_ = true;
    entries_left_ = 0;
    return false;
  }

  const std::string& current() const { return current_; }
  bool ok() const { return !damaged_; }

 private:
  // Keeps the undecoded tail and appends the region's next bytes: a window,
  // or `at_least` when that is more. False on a read error.
  bool Refill(uint64_t at_least) {
    const uint64_t take = std::min<uint64_t>(
        region_left_, std::max<uint64_t>(at_least, window_bytes_));
    window_.erase(0, pos_);
    pos_ = 0;
    const size_t kept = window_.size();
    window_.resize(kept + static_cast<size_t>(take));
    if (!PreadExact(fd_, next_offset_, window_.data() + kept,
                    static_cast<size_t>(take))) {
      return false;
    }
    next_offset_ += take;
    region_left_ -= take;
    return true;
  }

  int fd_;
  uint64_t next_offset_;
  uint64_t region_left_;
  uint64_t entries_left_;
  size_t window_bytes_;
  std::string window_;
  size_t pos_ = 0;
  std::string current_;
  bool decoded_ = false;  // current_ holds an entry
  bool damaged_ = false;
};

// The dictionary regions of the blocks at `offsets` in the table file
// `path`, open as `fd`, whose committed bytes end at `table_bytes`.
Result<std::vector<DictRegion>> ReadDictRegions(
    int fd, const fs::path& path, const std::vector<uint64_t>& offsets,
    uint64_t table_bytes) {
  std::vector<DictRegion> dicts;
  dicts.reserve(offsets.size());
  for (size_t b = 0; b < offsets.size(); ++b) {
    BlockHead head;
    if (!ReadBlockHead(fd, offsets[b], BlockLimit(offsets, b, table_bytes),
                       &head)) {
      return CorruptBlock(path);
    }
    dicts.push_back(head.dict);
  }
  return dicts;
}

// Read-window bytes per block dictionary in MergeDictionaries: a merge
// holds about block count × this.
constexpr size_t kDictMergeWindowBytes = 8 << 10;

// Calls `visit` once with each distinct value of the block dictionaries
// `dicts` of the table file `path`, open as `fd`, in ascending byte order,
// and sets `merged`'s distinct count, min and max to theirs: a
// tournament-tree k-way merge of one DictReader per block.
// CorruptBlock(path) when a dictionary is damaged; an error `visit`
// returns ends the merge with it.
Status MergeDictionaries(int fd, const fs::path& path,
                         const std::vector<DictRegion>& dicts,
                         const std::function<Status(std::string_view)>& visit,
                         ColumnStats* merged) {
  merged->distinct_count = 0;
  merged->min_value.reset();
  merged->max_value.reset();
  std::vector<DictReader> readers;
  readers.reserve(dicts.size());
  for (const DictRegion& region : dicts) {
    readers.emplace_back(fd, region, kDictMergeWindowBytes);
  }
  auto less = [&readers](int a, int b) {
    const int order = readers[static_cast<size_t>(a)].current().compare(
        readers[static_cast<size_t>(b)].current());
    return order != 0 ? order < 0 : a < b;
  };
  TournamentTree<decltype(less)> tree(static_cast<int>(readers.size()), less);
  for (size_t i = 0; i < readers.size(); ++i) {
    if (readers[i].Next()) {
      tree.Push(static_cast<int>(i));
    } else if (!readers[i].ok()) {
      return CorruptBlock(path);
    }
  }
  std::string last;
  while (!tree.empty()) {
    DictReader& reader = readers[static_cast<size_t>(tree.top())];
    if (merged->distinct_count == 0 || last < reader.current()) {
      ++merged->distinct_count;
      last = reader.current();
      if (!merged->min_value) merged->min_value = last;
      SPIDER_RETURN_NOT_OK(visit(last));
    }
    if (reader.Next()) {
      tree.Refresh();
    } else if (reader.ok()) {
      tree.Pop();
    } else {
      return CorruptBlock(path);
    }
  }
  if (merged->distinct_count > 0) merged->max_value = std::move(last);
  return Status::OK();
}

// Streaming cursor over one column's blocks in its table file: decodes one
// block at a time; the resident footprint is one block's dictionary plus
// its code bytes.
//
// table_bytes is the manifest-recorded (committed) length, not the on-disk
// length: bytes past it — e.g. the torn tail of an interrupted append —
// are treated as if they did not exist.
class DiskValueCursor final : public ValueCursor {
 public:
  DiskValueCursor(fs::path path, ScopedFd fd, std::vector<uint64_t> offsets,
                  uint64_t table_bytes)
      : path_(std::move(path)),
        fd_(std::move(fd)),
        offsets_(std::move(offsets)),
        table_bytes_(table_bytes) {}

  CursorStep Next(std::string_view* out) override {
    if (!status_.ok()) return CursorStep::kEnd;
    while (rows_left_ == 0) {
      if (next_block_ == offsets_.size()) return CursorStep::kEnd;
      if (!LoadBlock()) {
        status_ = CorruptBlock(path_);
        return CursorStep::kEnd;
      }
    }
    --rows_left_;
    uint64_t code = 0;
    if (!codes_.Varint(&code) || code > dict_.size()) {
      status_ = CorruptBlock(path_);
      return CursorStep::kEnd;
    }
    if (code == 0) return CursorStep::kNull;
    *out = dict_[code - 1];
    return CursorStep::kValue;
  }

  const Status& status() const override { return status_; }

 private:
  // Reads and decodes block next_block_. False when it is damaged.
  bool LoadBlock() {
    const size_t b = next_block_++;
    BlockHead head;
    if (!ReadBlockHead(fd_.get(), offsets_[b],
                       BlockLimit(offsets_, b, table_bytes_), &head)) {
      return false;
    }
    DictReader dict(fd_.get(), head.dict, static_cast<size_t>(head.dict.bytes));
    dict_.clear();
    dict_.reserve(head.dict.count);
    while (dict.Next()) dict_.push_back(dict.current());
    codes_bytes_.resize(static_cast<size_t>(head.end - head.codes_offset));
    if (!dict.ok() || !PreadExact(fd_.get(), head.codes_offset,
                                  codes_bytes_.data(), codes_bytes_.size())) {
      return false;
    }
    codes_ = SpanReader(codes_bytes_);
    rows_left_ = head.rows;
    return true;
  }

  fs::path path_;
  ScopedFd fd_;
  std::vector<uint64_t> offsets_;
  uint64_t table_bytes_;
  size_t next_block_ = 0;
  std::vector<std::string> dict_;
  std::string codes_bytes_;
  SpanReader codes_;
  uint64_t rows_left_ = 0;
  Status status_;
};

// One block's distinct values in arrival order. Their bytes live once in
// an append-only arena; an open-addressing table of 1-based arrival codes
// (0 = empty slot, at most half full) finds them by HashString. Memory is
// the arena, 24 bytes per entry and 8 bytes per slot, all sized by the
// largest block so far because Clear() keeps capacity: O(block_bytes).
class BlockDictionary {
 public:
  // The value's arrival code, and whether this call added it.
  std::pair<uint64_t, bool> Insert(std::string_view value) {
    if ((entries_.size() + 1) * 2 > slots_.size()) Grow();
    const uint64_t hash = HashString(value);
    const size_t mask = slots_.size() - 1;
    size_t slot = static_cast<size_t>(hash) & mask;
    for (uint64_t code = slots_[slot]; code != 0; code = slots_[slot]) {
      const Entry& entry = entries_[code - 1];
      if (entry.hash == hash && View(entry) == value) return {code, false};
      slot = (slot + 1) & mask;
    }
    entries_.push_back(Entry{hash, arena_.size(), value.size()});
    arena_.append(value);
    slots_[slot] = entries_.size();
    return {entries_.size(), true};
  }

  size_t size() const { return entries_.size(); }

  // Calls visit(value, arrival_code) for every entry in ascending byte
  // order: string_view compares as std::string does, as unsigned chars.
  // The entries are sorted in place, each keeping its arrival code where
  // its hash was, so Clear() must come before the next Insert().
  template <typename Visit>
  void VisitSorted(Visit&& visit) {
    for (size_t i = 0; i < entries_.size(); ++i) entries_[i].hash = i + 1;
    std::sort(entries_.begin(), entries_.end(),
              [this](const Entry& a, const Entry& b) {
                return View(a) < View(b);
              });
    for (const Entry& entry : entries_) visit(View(entry), entry.hash);
  }

  void Clear() {
    arena_.clear();
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
  }

 private:
  struct Entry {
    uint64_t hash;  // the arrival code once VisitSorted() has run
    size_t offset;  // into arena_; size_t because block_bytes is unbounded
    size_t length;
  };

  std::string_view View(const Entry& entry) const {
    return std::string_view(arena_.data() + entry.offset, entry.length);
  }

  void Grow() {
    slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, 0);
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = static_cast<size_t>(entries_[i].hash) & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = i + 1;
    }
  }

  std::string arena_;
  std::vector<Entry> entries_;
  std::vector<uint64_t> slots_;
};

// The bytes EncodeVarint appends for `v`.
size_t VarintBytes(uint64_t v) {
  size_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

// One block encoded in memory, waiting for its place in the table file.
struct EncodedBlock {
  // The table row whose value filled the block. A tail block carries the
  // table's row count, so it follows every block that filled.
  int64_t fill_row = 0;
  // Exactly the bytes written: the payload size, then the payload.
  std::string bytes;
  // The dictionary's region, its offset relative to the block's start.
  DictRegion dict;
};

// Takes the writer lock of the workspace `dir`: an exclusive, non-blocking
// flock on its kDiskStoreLockName, created if absent.
Result<ScopedFd> LockWorkspace(const fs::path& dir) {
  const fs::path path = dir / kDiskStoreLockName;
  ScopedFd fd(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644));
  if (fd.get() < 0) {
    return Status::IOError("cannot open writer lock " + path.string() + ": " +
                           std::strerror(errno));
  }
  while (::flock(fd.get(), LOCK_EX | LOCK_NB) != 0) {
    if (errno == EINTR) continue;
    if (errno == EWOULDBLOCK) {
      return Status::ResourceExhausted("workspace busy: " + dir.string() +
                                       " is open by another writer");
    }
    return Status::IOError("cannot lock " + path.string() + ": " +
                           std::strerror(errno));
  }
  return fd;
}

// The workspace `dir`'s manifest, decoded, once each table file it names
// exists and holds the bytes the manifest committed: readers take those
// bytes as the file's extent, so a file that holds fewer is damage here,
// not an allocation sized by it.
Result<ManifestData> ParseManifest(const fs::path& dir) {
  const fs::path path = dir / kDiskStoreManifestName;
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return Status::IOError("cannot open manifest " + path.string() +
                           " (not a disk-store workspace?)");
  }
  Result<ManifestData> data = DecodeStoreManifest(*bytes);
  if (!data.ok()) {
    return Status::InvalidArgument("manifest " + path.string() + ": " +
                                   data.status().message());
  }
  for (const ManifestTable& table : data->tables) {
    const fs::path file = dir / table.file_name;
    const std::optional<FileIdentity> on_disk = StatFileIdentity(file);
    if (!on_disk) {
      return Status::IOError("missing column file " + file.string());
    }
    if (on_disk->size < table.file_bytes) {
      return Status::IOError("column file " + file.string() +
                             " is shorter than its manifest record");
    }
  }
  return data;
}

// The catalog a manifest describes: schema, counts and cached statistics,
// every column a DiskColumnStore over its blocks in dir/<table file>.
// OpenDiskCatalog runs it on the manifest it parsed,
// DiskCatalogWriter::Finish on the one it commits.
Result<std::unique_ptr<Catalog>> CatalogFromManifest(const fs::path& dir,
                                                     ManifestData data) {
  auto catalog = std::make_unique<Catalog>(data.catalog_name);
  for (ManifestTable& manifest_table : data.tables) {
    auto table = std::make_unique<Table>(manifest_table.name);
    const fs::path file = dir / manifest_table.file_name;
    for (ManifestColumn& column : manifest_table.columns) {
      auto store = std::make_unique<DiskColumnStore>(
          file, std::move(column.stats), column.bytes,
          std::move(column.block_offsets), manifest_table.file_bytes);
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

}  // namespace

Result<std::unique_ptr<ValueCursor>> DiskColumnStore::OpenCursor() const {
  ScopedFd fd(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IOError("cannot open column file " + path_.string());
  }
  AdviseSequential(fd.get());
  // Scan within the manifest-recorded bytes, not the on-disk size: a torn
  // append may have left extra bytes past the committed length, and those
  // must stay invisible until a manifest rename commits them.
  return std::unique_ptr<ValueCursor>(std::make_unique<DiskValueCursor>(
      path_, std::move(fd), block_offsets_,
      static_cast<uint64_t>(table_bytes_)));
}

Status DiskColumnStore::VisitDistinctSorted(
    const std::function<Status(std::string_view)>& visit) const {
  ScopedFd fd(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IOError("cannot open column file " + path_.string());
  }
  SPIDER_ASSIGN_OR_RETURN(
      const std::vector<DictRegion> dicts,
      ReadDictRegions(fd.get(), path_, block_offsets_,
                      static_cast<uint64_t>(table_bytes_)));
  ColumnStats merged;
  SPIDER_RETURN_NOT_OK(
      MergeDictionaries(fd.get(), path_, dicts, visit, &merged));
  // The seal merged these same dictionaries into the manifest's
  // statistics, so values that disagree with them come from damage.
  if (merged.distinct_count != stats_.distinct_count ||
      merged.min_value != stats_.min_value ||
      merged.max_value != stats_.max_value) {
    return CorruptBlock(path_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// TableFile: the open table's ".col" file, shared by its column writers.
// ---------------------------------------------------------------------------

struct DiskCatalogWriter::TableFile {
  // Opens the file of a new table (`committed` null), empty — an older file
  // of that name is cut to nothing — or the file of the sealed table
  // `committed`, cut back to the bytes its manifest record committed: the
  // torn tail of an interrupted append goes, once for all its columns.
  static Result<std::unique_ptr<TableFile>> Open(
      fs::path path, const ManifestTable* committed) {
    auto file = std::make_unique<TableFile>();
    file->path = std::move(path);
    const std::string name = file->path.string();
    if (committed == nullptr) {
      file->out.open(file->path, std::ios::binary | std::ios::trunc);
    } else {
      file->bytes = static_cast<uint64_t>(committed->file_bytes);
      std::error_code ec;
      fs::resize_file(file->path, file->bytes, ec);
      if (ec) {
        return Status::IOError("cannot truncate torn tail of " + name + ": " +
                               ec.message());
      }
      file->out.open(file->path, std::ios::binary | std::ios::in |
                                     std::ios::out | std::ios::ate);
    }
    if (!file->out) return Status::IOError("cannot open column file " + name);
    file->in = ScopedFd(::open(file->path.c_str(), O_RDONLY | O_CLOEXEC));
    if (file->in.get() < 0) {
      return Status::IOError("cannot reopen column file " + name);
    }
    return file;
  }

  fs::path path;
  // Every column's blocks go to the end, in the order the columns flush.
  std::ofstream out;
  // Reads blocks back: the append path's rescan and the seal-time merge.
  ScopedFd in;
  // The file's end: where the next block starts.
  uint64_t bytes = 0;
};

// ---------------------------------------------------------------------------
// ColumnWriter: accumulates one block at a time and encodes it in memory
// when it fills; the Encoder writes it to the end of the table file.
// ---------------------------------------------------------------------------

class DiskCatalogWriter::ColumnWriter {
 public:
  ColumnWriter(std::string name, TypeId type, bool declared_unique,
               TableFile& table, const DiskStoreOptions& options)
      : name_(std::move(name)),
        type_(type),
        declared_unique_(declared_unique),
        table_(table),
        options_(options) {}

  const std::string& name() const { return name_; }
  TypeId type() const { return type_; }

  /// Continues the sealed column `sealed` of the open table: reads the
  /// heads of its committed blocks (ParseManifest checked their offsets)
  /// to rebuild the dictionary-region index the seal-time statistics merge
  /// needs. The row and null counts continue from its statistics; Seal()
  /// recomputes distinct/min/max over all blocks, old and new.
  Status OpenForAppend(const ManifestColumn& sealed) {
    SPIDER_ASSIGN_OR_RETURN(
        dicts_, ReadDictRegions(table_.in.get(), table_.path,
                                sealed.block_offsets, table_.bytes));
    block_offsets_ = sealed.block_offsets;
    bytes_ = sealed.bytes;
    stats_ = sealed.stats;
    return Status::OK();
  }

  /// Encodes `cells`, the column's values of the table rows from
  /// `first_row` on, and frees each. Each block that fills is encoded into
  /// `out`. With `last` the pending rows follow as the tail block, and the
  /// block buffers go before the seal.
  void Encode(std::span<Value> cells, int64_t first_row, bool last,
              std::vector<EncodedBlock>* out) {
    int64_t row = first_row;
    for (Value& v : cells) {
      Append(v);
      v = Value();
      if (pending_bytes_ >= options_.block_bytes) {
        out->push_back(EncodeBlock(row));
      }
      ++row;
    }
    if (!last) return;
    if (!block_codes_.empty()) out->push_back(EncodeBlock(row));
    block_dict_ = BlockDictionary();
    std::vector<uint64_t>().swap(block_codes_);
  }

  /// Records `block`, written at `offset` of the table file. Runs on the
  /// writing thread while Encode() may run on a worker: the two touch
  /// disjoint members.
  void Place(uint64_t offset, const EncodedBlock& block) {
    block_offsets_.push_back(offset);
    dicts_.push_back(DictRegion{offset + block.dict.offset, block.dict.bytes,
                                block.dict.count});
    bytes_ += static_cast<int64_t>(block.bytes.size());
  }

  /// Computes the seal-time statistics (exact distinct count / min / max
  /// from MergeDictionaries over the table file's one read descriptor)
  /// once every block, the tail one too, is in the table file. Returns the
  /// column's manifest record.
  Result<ManifestColumn> Seal() {
    SPIDER_RETURN_NOT_OK(MergeDictionaries(
        table_.in.get(), table_.path, dicts_,
        [](std::string_view) { return Status::OK(); }, &stats_));
    stats_.verified_unique = stats_.non_null_count > 0 &&
                             stats_.distinct_count == stats_.non_null_count;
    return ManifestColumn{name_, type_, declared_unique_, bytes_,
                          std::move(block_offsets_), stats_};
  }

 private:
  void Append(const Value& v) {
    ++stats_.row_count;
    if (v.is_null()) {
      ++stats_.null_count;
      block_codes_.push_back(0);
      pending_bytes_ += 1;
      return;
    }
    ++stats_.non_null_count;
    Value::CanonicalBuffer buffer;
    const std::string_view canon = v.CanonicalView(buffer);
    const auto [code, inserted] = block_dict_.Insert(canon);
    if (inserted) pending_bytes_ += static_cast<int64_t>(canon.size());
    block_codes_.push_back(code);
    pending_bytes_ += 4;
  }

  // Encodes the pending rows, the block that filled at `fill_row`, and
  // starts the next block.
  EncodedBlock EncodeBlock(int64_t fill_row) {
    // The per-block dictionary is sorted; remap arrival codes to sorted
    // codes (NULL keeps code 0).
    std::vector<uint64_t> arrival_to_sorted(block_dict_.size() + 1, 0);
    std::string dict;
    {
      uint64_t sorted_code = 1;
      std::string_view previous;
      block_dict_.VisitSorted([&](std::string_view value,
                                  uint64_t arrival_code) {
        size_t shared = 0;
        const size_t limit = std::min(previous.size(), value.size());
        while (shared < limit && previous[shared] == value[shared]) ++shared;
        EncodeVarint(&dict, shared);
        EncodeVarint(&dict, value.size() - shared);
        dict.append(value.substr(shared));
        arrival_to_sorted[arrival_code] = sorted_code++;
        previous = value;
      });
    }

    // The block is built in the buffer that is written, sized first:
    // payload size, row count, dictionary count and bytes, dictionary,
    // one code per row.
    std::string counts;
    EncodeVarint(&counts, block_codes_.size());
    EncodeVarint(&counts, block_dict_.size());
    EncodeVarint(&counts, dict.size());
    uint64_t payload_bytes = counts.size() + dict.size();
    for (uint64_t arrival_code : block_codes_) {
      payload_bytes += VarintBytes(arrival_to_sorted[arrival_code]);
    }
    EncodedBlock block;
    block.fill_row = fill_row;
    block.bytes.reserve(VarintBytes(payload_bytes) + payload_bytes);
    EncodeVarint(&block.bytes, payload_bytes);
    block.bytes += counts;
    block.dict = DictRegion{block.bytes.size(), dict.size(), block_dict_.size()};
    block.bytes += dict;
    for (uint64_t arrival_code : block_codes_) {
      EncodeVarint(&block.bytes, arrival_to_sorted[arrival_code]);
    }

    block_dict_.Clear();
    block_codes_.clear();
    pending_bytes_ = 0;
    return block;
  }

  std::string name_;
  TypeId type_;
  bool declared_unique_;
  TableFile& table_;
  const DiskStoreOptions& options_;

  // Encode()'s: the current block — distinct values mapped to 1-based
  // arrival codes, plus the per-row arrival codes (0 = NULL) — and the row
  // and null counts.
  BlockDictionary block_dict_;
  std::vector<uint64_t> block_codes_;
  int64_t pending_bytes_ = 0;
  ColumnStats stats_;

  // Place()'s: where the column's blocks lie in the table file.
  std::vector<uint64_t> block_offsets_;
  std::vector<DictRegion> dicts_;
  int64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Encoder: the open table's cells, encoded into blocks column by column on
// the writer's pool and written in the serial writer's order.
//
// Add() moves a row's cells into the filling batch, column-major. A full
// batch (kDiskWriterBatchCells cells, so a wide table cannot multiply it) is
// submitted. The table's columns are cut into at most kRangesPerWorker
// ranges per worker, and each range encodes its columns' cells of each
// batch — canonical text, dictionary insert, and the sort and encoding of
// every block that fills — one batch after another, in one task at a
// time, then frees them. There is no barrier per batch: the caller's thread
// writes a batch once every range has encoded it, its blocks by (fill row,
// column), which is the order the serial writer flushed them in, so every
// block lands at the offset it always had. The last batch also carries each
// column's tail block, in column order. At most kMaxBatchesInFlight batches
// are submitted and unwritten, which bounds the extra memory.
//
// The pool starts when a table first fills a batch, with a worker per range
// up to the thread count and the hardware concurrency, and grows between
// tables when a later table has more ranges. With one thread there is no
// pool, and a table that fits in one batch does not use it: Submit() runs
// the same range tasks inline.
// ---------------------------------------------------------------------------

class DiskCatalogWriter::Encoder {
 public:
  explicit Encoder(int threads)
      : max_workers_(std::min(ThreadPool::ResolveThreadCount(threads),
                              ThreadPool::ResolveThreadCount(0))) {}

  // Lets every queued range task return at once and joins the workers:
  // batches still in flight are dropped unwritten.
  ~Encoder() {
    {
      MutexLock lock(&mutex_);
      abandoned_ = true;
    }
    pool_.reset();
  }

  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  /// Starts a table whose blocks go to `file` through `columns`.
  void Begin(std::vector<std::unique_ptr<ColumnWriter>>* columns,
             TableFile* file) SPIDER_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    columns_ = columns;
    file_ = file;
    submitted_ = 0;
    written_ = 0;
    encoded_.clear();
    running_.clear();
    status_ = Status::OK();
  }

  /// Takes the cells of `row`, table row `index`, which fits the table's
  /// columns. Returns the error of an earlier failed block write.
  Status Add(std::vector<Value>& row, int64_t index) SPIDER_EXCLUDES(mutex_) {
    if (!status_.ok()) return status_;
    if (filling_ == nullptr) NewBatch(index);
    Batch& batch = *filling_;
    for (size_t c = 0; c < row.size(); ++c) {
      batch.cells[c * batch.capacity + batch.rows] = std::move(row[c]);
    }
    if (++batch.rows < batch.capacity) return Status::OK();
    Submit(/*last=*/false);
    return Drain(kMaxBatchesInFlight - 1);
  }

  /// Submits the last batch, with every column's tail block, and writes
  /// every block. Waits for every batch in flight, even after a failed
  /// write, whose error it returns.
  Status Finish(int64_t rows) SPIDER_EXCLUDES(mutex_) {
    if (status_.ok()) {
      if (filling_ == nullptr) NewBatch(rows);
      Submit(/*last=*/true);
    }
    filling_.reset();
    return Drain(0);
  }

  /// Runs task(c) for every column c of the finished table, on the pool
  /// where its batches ran, and returns the first error in column order
  /// once all have returned.
  Status ForEachColumn(const std::function<Status(size_t)>& task) {
    const size_t columns = columns_->size();
    if (!on_pool_) {
      for (size_t c = 0; c < columns; ++c) SPIDER_RETURN_NOT_OK(task(c));
      return Status::OK();
    }
    std::vector<std::future<Status>> results;
    results.reserve(columns);
    for (size_t c = 0; c < columns; ++c) {
      results.push_back(pool_->Submit([&task, c] { return task(c); }));
    }
    Status first;
    for (std::future<Status>& result : results) {
      Status status = result.get();
      if (first.ok()) first = std::move(status);
    }
    return first;
  }

 private:
  // Batches submitted and not yet written: enough for the other ranges to
  // run ahead while one sorts a full block.
  static constexpr size_t kMaxBatchesInFlight = 16;
  // Column ranges per worker: a wide table's columns share a task, so a
  // batch costs the caller's thread a few task hand-offs per worker, not
  // one per column.
  static constexpr int kRangesPerWorker = 4;

  struct Batch {
    int64_t first_row = 0;
    size_t rows = 0;
    size_t capacity = 0;
    // FinishTable's batch: each column also encodes its tail block.
    bool last = false;
    // The ranges yet to encode the batch; guarded by the encoder's mutex_.
    size_t unencoded = 0;
    // Column c's cells are [c × capacity, c × capacity + rows), and
    // blocks[c] the blocks they filled, in fill order. Column c's range
    // task alone touches them until the batch is encoded.
    std::vector<Value> cells;
    std::vector<std::vector<EncodedBlock>> blocks;

    std::span<Value> Cells(size_t c) {
      return {cells.data() + c * capacity, rows};
    }
  };

  void NewBatch(int64_t first_row) SPIDER_EXCLUDES(mutex_) {
    const size_t columns = columns_->size();
    filling_ = std::make_unique<Batch>();
    filling_->first_row = first_row;
    filling_->capacity = std::max<size_t>(
        1, kDiskWriterBatchCells / std::max<size_t>(1, columns));
    filling_->cells.resize(columns * filling_->capacity);
    filling_->blocks.resize(columns);
    MutexLock lock(&mutex_);
    // The table's first batch: its columns are fixed from here on.
    if (submitted_ == 0) {
      const size_t ranges = std::min(
          columns, static_cast<size_t>(kRangesPerWorker * max_workers_));
      range_begin_.assign(1, 0);
      for (size_t r = 1; r <= ranges; ++r) {
        range_begin_.push_back(r * columns / ranges);
      }
      encoded_.assign(ranges, 0);
      running_.assign(ranges, false);
    }
  }

  // Hands the filling batch to every range; starts the task of each range
  // that has none running.
  void Submit(bool last) SPIDER_EXCLUDES(mutex_) {
    filling_->last = last;
    std::vector<size_t> idle;
    bool first = false;
    {
      MutexLock lock(&mutex_);
      first = submitted_ == 0;
      filling_->unencoded = running_.size();
      in_flight_.push_back(std::move(filling_));
      ++submitted_;
      for (size_t r = 0; r < running_.size(); ++r) {
        if (!running_[r]) {
          running_[r] = true;
          idle.push_back(r);
        }
      }
    }
    if (first) PlaceTasks(last);
    for (const size_t r : idle) {
      if (on_pool_) {
        pool_->Schedule([this, r] { EncodeRange(r); });
      } else {
        EncodeRange(r);
      }
    }
  }

  // Decides at the table's first batch where its tasks run. A table that
  // ends within that batch, or has one range, runs inline: its work is too
  // small to pay for waking the workers. Any other table runs on the pool,
  // started or grown to a worker per range.
  void PlaceTasks(bool last) {
    const int workers = static_cast<int>(std::min(
        range_begin_.size() - 1, static_cast<size_t>(max_workers_)));
    on_pool_ = !last && workers > 1;
    if (on_pool_ && (pool_ == nullptr || pool_->size() < workers)) {
      // Joins the smaller pool; the previous table's tasks have returned.
      pool_.reset();
      pool_ = std::make_unique<ThreadPool>(workers);
    }
  }

  // Range r's task: encodes its columns' cells of each submitted batch in
  // order until it has caught up, and wakes the caller's thread when it
  // finishes the oldest batch in flight.
  void EncodeRange(size_t r) SPIDER_EXCLUDES(mutex_) {
    Batch* batch = nullptr;
    {
      MutexLock lock(&mutex_);
      batch = NextBatch(r);
    }
    while (batch != nullptr) {
      for (size_t c = range_begin_[r]; c < range_begin_[r + 1]; ++c) {
        (*columns_)[c]->Encode(batch->Cells(c), batch->first_row, batch->last,
                               &batch->blocks[c]);
      }
      bool head_encoded = false;
      {
        MutexLock lock(&mutex_);
        ++encoded_[r];
        head_encoded =
            --batch->unencoded == 0 && batch == in_flight_.front().get();
        batch = NextBatch(r);
      }
      if (head_encoded) cv_.NotifyAll();
    }
  }

  // The next batch range r encodes. Null once it has caught up or the
  // encoder is dropped: its task stops in the same critical section, so a
  // table whose batches are all encoded has no task left.
  Batch* NextBatch(size_t r) SPIDER_REQUIRES(mutex_) {
    if (abandoned_ || encoded_[r] == submitted_) {
      running_[r] = false;
      return nullptr;
    }
    return in_flight_[static_cast<size_t>(encoded_[r] - written_)].get();
  }

  // Writes each batch every range has encoded, oldest first; while more
  // than `keep` batches are in flight it waits for the oldest. After a
  // failed write it drops the batches unwritten.
  Status Drain(size_t keep) SPIDER_EXCLUDES(mutex_) {
    while (true) {
      std::unique_ptr<Batch> batch;
      {
        MutexLock lock(&mutex_);
        while (in_flight_.size() > keep && in_flight_.front()->unencoded > 0) {
          cv_.Wait();
        }
        if (in_flight_.empty() || in_flight_.front()->unencoded > 0) {
          return status_;
        }
        batch = std::move(in_flight_.front());
        in_flight_.pop_front();
        ++written_;
      }
      if (status_.ok()) status_ = Write(*batch);
    }
  }

  // Appends the batch's blocks to the table file in (fill row, column)
  // order and places each in its column.
  Status Write(Batch& batch) {
    struct Pending {
      int64_t fill_row;
      size_t column;
      const EncodedBlock* block;
    };
    std::vector<Pending> order;
    for (size_t c = 0; c < batch.blocks.size(); ++c) {
      for (const EncodedBlock& block : batch.blocks[c]) {
        order.push_back(Pending{block.fill_row, c, &block});
      }
    }
    std::sort(order.begin(), order.end(),
              [](const Pending& a, const Pending& b) {
                return a.fill_row != b.fill_row ? a.fill_row < b.fill_row
                                                : a.column < b.column;
              });
    for (const Pending& pending : order) {
      const std::string& bytes = pending.block->bytes;
      file_->out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!file_->out) {
        return Status::IOError("failed writing block to " +
                               file_->path.string());
      }
      (*columns_)[pending.column]->Place(file_->bytes, *pending.block);
      file_->bytes += bytes.size();
    }
    return Status::OK();
  }

  // DiskStoreOptions::threads, resolved and clamped to the hardware
  // concurrency: the most workers the pool grows to.
  const int max_workers_;

  // Set by Begin() before any task of the table starts.
  std::vector<std::unique_ptr<ColumnWriter>>* columns_ = nullptr;
  TableFile* file_ = nullptr;
  // The first column of each range, then the column count. Set at the
  // table's first batch, before any of its tasks starts.
  std::vector<size_t> range_begin_;

  // The caller's thread's: the batch being filled, the first failed
  // write, and whether the table's tasks run on the pool.
  std::unique_ptr<Batch> filling_;
  Status status_;
  bool on_pool_ = false;

  Mutex mutex_;
  // Signalled whenever the oldest batch in flight is encoded.
  CondVar cv_{&mutex_};
  // Submitted batches not yet written, oldest first; the oldest is batch
  // number written_ of the table, the newest submitted_ - 1.
  std::deque<std::unique_ptr<Batch>> in_flight_ SPIDER_GUARDED_BY(mutex_);
  int64_t submitted_ SPIDER_GUARDED_BY(mutex_) = 0;
  int64_t written_ SPIDER_GUARDED_BY(mutex_) = 0;
  // By range: the batches it has encoded, and whether its task runs.
  std::vector<int64_t> encoded_ SPIDER_GUARDED_BY(mutex_);
  std::vector<bool> running_ SPIDER_GUARDED_BY(mutex_);
  bool abandoned_ SPIDER_GUARDED_BY(mutex_) = false;
  // Started by the first table that needs it; declared last: the workers
  // use everything above.
  std::unique_ptr<ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// DiskCatalogWriter
// ---------------------------------------------------------------------------

// The workspace as Finish() will commit it. It starts as the manifest the
// workspace held (an empty one for Create()); each sealed table replaces
// its entry (an append) or follows the others (a new table), and each
// declared foreign key follows the previous ones.
struct DiskCatalogWriter::AppendState {
  ManifestData manifest;
  // Tables sealed this session, by name: each is begun at most once.
  std::set<std::string> sealed;
  // The manifest entry of the open table when it is an append; null when
  // the open table is new.
  ManifestTable* appending = nullptr;
  size_t next_column = 0;
};

DiskCatalogWriter::DiskCatalogWriter(fs::path dir, DiskStoreOptions options,
                                     std::unique_ptr<AppendState> append,
                                     ScopedFd lock)
    : dir_(std::move(dir)),
      options_(options),
      append_(std::move(append)),
      lock_(std::move(lock)),
      encoder_(std::make_unique<Encoder>(options.threads)) {
  // Keep the workspace's original block size so every block of a column
  // obeys the same bound.
  const int64_t block_bytes = append_->manifest.block_bytes;
  if (block_bytes >= 1024) options_.block_bytes = block_bytes;
  append_->manifest.block_bytes = options_.block_bytes;
}

DiskCatalogWriter::~DiskCatalogWriter() {
  // Stops the workers before the column writers they encode into go.
  encoder_.reset();
}

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
  SPIDER_ASSIGN_OR_RETURN(ScopedFd lock, LockWorkspace(dir));
  if (fs::exists(dir / kDiskStoreManifestName)) {
    return Status::AlreadyExists("workspace " + dir.string() +
                                 " already holds a disk store");
  }
  // A new workspace is an append onto an empty one.
  auto append = std::make_unique<AppendState>();
  append->manifest.catalog_name = std::move(catalog_name);
  append->manifest.block_bytes = options.block_bytes;
  return std::unique_ptr<DiskCatalogWriter>(new DiskCatalogWriter(
      std::move(dir), options, std::move(append), std::move(lock)));
}

Result<std::unique_ptr<DiskCatalogWriter>> DiskCatalogWriter::OpenForAppend(
    fs::path dir, DiskStoreOptions options) {
  ScopedFd lock;
  if (IsDiskCatalogDir(dir)) {
    SPIDER_ASSIGN_OR_RETURN(lock, LockWorkspace(dir));
  }
  auto append = std::make_unique<AppendState>();
  SPIDER_ASSIGN_OR_RETURN(append->manifest, ParseManifest(dir));
  return std::unique_ptr<DiskCatalogWriter>(new DiskCatalogWriter(
      std::move(dir), options, std::move(append), std::move(lock)));
}

Status DiskCatalogWriter::BeginTable(const std::string& name) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (table_open_) return Status::InvalidArgument("previous table not finished");
  if (append_->sealed.count(name) != 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  std::vector<ManifestTable>& tables = append_->manifest.tables;
  const auto it =
      std::find_if(tables.begin(), tables.end(),
                   [&name](const ManifestTable& t) { return t.name == name; });
  ManifestTable* const appending = it == tables.end() ? nullptr : &*it;
  column_writers_.clear();
  SPIDER_ASSIGN_OR_RETURN(
      table_file_,
      TableFile::Open(dir_ / (appending != nullptr
                                  ? appending->file_name
                                  : TableFileStem(name) + ".col"),
                      appending));
  append_->appending = appending;
  append_->next_column = 0;
  encoder_->Begin(&column_writers_, table_file_.get());
  table_name_ = name;
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
  if (append_->appending != nullptr) {
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
        std::move(name), old.type, old.declared_unique, *table_file_, options_);
    SPIDER_RETURN_NOT_OK(writer->OpenForAppend(old));
    column_writers_.push_back(std::move(writer));
    return Status::OK();
  }
  column_writers_.push_back(std::make_unique<ColumnWriter>(
      std::move(name), type, declared_unique, *table_file_, options_));
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
  if (append_->appending != nullptr) {
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
  SPIDER_RETURN_NOT_OK(encoder_->Add(row, table_rows_));
  ++table_rows_;
  return Status::OK();
}

Status DiskCatalogWriter::FinishTable() {
  if (!table_open_) return Status::InvalidArgument("no open table");
  ManifestTable* const appending = append_->appending;
  if (appending != nullptr &&
      append_->next_column != appending->columns.size()) {
    return Status::InvalidArgument(
        "append to '" + table_name_ + "' declared " +
        std::to_string(append_->next_column) + " of " +
        std::to_string(appending->columns.size()) + " sealed columns");
  }
  SPIDER_RETURN_NOT_OK(encoder_->Finish(table_rows_));
  table_file_->out.close();
  if (table_file_->out.fail()) {
    return Status::IOError("failed writing column file " +
                           table_file_->path.string());
  }
  ManifestTable table;
  table.name = table_name_;
  table.file_name = table_file_->path.filename().string();
  table.file_bytes = static_cast<int64_t>(table_file_->bytes);
  // Every column seals on the pool through the table file's one read
  // descriptor; the records keep column order.
  table.columns.resize(column_writers_.size());
  SPIDER_RETURN_NOT_OK(encoder_->ForEachColumn([&](size_t c) -> Status {
    SPIDER_ASSIGN_OR_RETURN(table.columns[c], column_writers_[c]->Seal());
    return Status::OK();
  }));
  table.row_count =
      table.columns.empty() ? 0 : table.columns.front().stats.row_count;
  if (appending != nullptr) {
    *appending = std::move(table);
  } else {
    append_->manifest.tables.push_back(std::move(table));
  }
  append_->sealed.insert(table_name_);
  append_->appending = nullptr;
  column_writers_.clear();
  table_file_.reset();
  table_open_ = false;
  return Status::OK();
}

void DiskCatalogWriter::DeclareForeignKey(ForeignKey fk) {
  append_->manifest.foreign_keys.push_back(std::move(fk));
}

Result<std::unique_ptr<Catalog>> DiskCatalogWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (table_open_) return Status::InvalidArgument("table not finished");
  finished_ = true;
  // The rename is the commit point: readers see the old manifest, whose
  // byte counts hide the appended tail, or the complete new one.
  const std::string manifest = EncodeStoreManifest(append_->manifest);
  SPIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<Catalog> catalog,
      CatalogFromManifest(dir_, std::move(append_->manifest)));
  SPIDER_RETURN_NOT_OK(
      WriteFileAtomically(dir_ / kDiskStoreManifestName, manifest));
  lock_.Reset();
  return catalog;
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
  return CatalogFromManifest(dir, std::move(data));
}

}  // namespace spider
