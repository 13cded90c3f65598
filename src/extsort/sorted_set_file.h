// Sorted-distinct value set files.
//
// These files play the role the paper assigns to the RDBMS export: the
// sorted set s(a) of distinct values of an attribute, materialized once and
// reused by every IND test (the paper's optimization #1, Sec. 1.2).
//
// ## Block-indexed format (version 1)
//
//   [8-byte magic "SpSetBlk"][1-byte version]
//   [block 0: varint-length-prefixed records][block 1]...[block n-1]
//   [footer: varint n, then per block
//            varint offset, varint record_count,
//            varint first_len + first key, varint last_len + last key]
//   [8-byte LE footer offset][8-byte magic "SpSetBlk"]
//
// Blocks close at record boundaries once they reach the writer's target
// size, so a record never spans blocks. Because records are sorted, each
// footer entry's (first, last) pair is an exact zonemap: a merge that needs
// values >= k can binary-search the footer and bypass every block whose
// last key is below k without decoding it (SkipToAtLeast below). A file
// without the magic fails Open() with IOError: set files are a cache, and
// the profile store treats a failed reuse as a miss.
//
// ExternalSorter's spill runs are set files too: each run is written with
// SortedSetWriter and merged back through SortedSetReader, so one writer
// and one bounds-checked reader serve every sorted run on disk.
//
// The magic/footer constants live here and nowhere else; hand-rolled
// parsers elsewhere are rejected by the `set-format-magic` lint rule.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/counters.h"
#include "src/common/logging.h"
#include "src/common/result.h"

namespace spider {

/// 8-byte magic opening (and, mirrored, closing) a block-indexed set file.
/// Do not re-derive this value outside sorted_set_file.{h,cc}; the
/// `set-format-magic` lint rule enforces it.
inline constexpr std::string_view kSortedSetMagic = "SpSetBlk";
/// Current block-indexed format version (one byte after the magic).
inline constexpr unsigned char kSortedSetFormatVersion = 1;
/// Header = magic + version byte.
inline constexpr size_t kSortedSetHeaderBytes = kSortedSetMagic.size() + 1;
/// Trailer = 8-byte LE footer offset + closing magic.
inline constexpr size_t kSortedSetTrailerBytes = 8 + kSortedSetMagic.size();

/// Options for SortedSetWriter.
struct SortedSetWriterOptions {
  /// Target encoded bytes per block; a block seals at the first record
  /// boundary at or past this size, so the zonemap granularity (and the
  /// reader's minimum seek unit) is roughly this many bytes.
  size_t target_block_bytes = 16 * 1024;
};

/// What a run reads of a materialized sorted value set: where it is and
/// how many values it holds. Its block count, first and last value are in
/// the file's footer (SortedSetReader).
struct SortedSetInfo {
  std::filesystem::path path;
  /// Number of distinct non-NULL values.
  int64_t distinct_count = 0;
};

/// \brief Writes a sorted-distinct value file. Enforces strict ordering:
/// every appended value must be greater than its predecessor.
///
/// The records go to `path` itself, which must be a name of the caller's
/// own: publishing the file where other readers look for it is the
/// caller's step (ValueSetExtractor stages each set and renames it into
/// place once). A writer destroyed without a successful Finish() removes
/// the file.
class SortedSetWriter {
 public:
  [[nodiscard]]
  static Result<std::unique_ptr<SortedSetWriter>> Create(
      const std::filesystem::path& path, SortedSetWriterOptions options = {});

  ~SortedSetWriter();

  /// Appends `value`; fails with InvalidArgument if ordering is violated.
  [[nodiscard]]
  Status Append(std::string_view value);

  /// Seals the last block, writes the footer index and closes the file;
  /// returns what it wrote. Must be called before reading. A second call
  /// returns the same info.
  [[nodiscard]]
  Result<SortedSetInfo> Finish();

  int64_t count() const { return count_; }

  /// Blocks written (sealed) so far; the final total after Finish().
  int64_t block_count() const { return static_cast<int64_t>(blocks_.size()); }

 private:
  struct BlockMeta {
    uint64_t offset = 0;  // absolute file offset of the first record
    uint64_t records = 0;
    std::string first_key;
    std::string last_key;
  };

  SortedSetWriter(std::ofstream out, std::filesystem::path path,
                  SortedSetWriterOptions options)
      : out_(std::move(out)), path_(std::move(path)), options_(options) {}

  /// Writes the open block in one call and appends its footer entry.
  [[nodiscard]]
  Status SealBlock();

  std::ofstream out_;
  std::filesystem::path path_;
  SortedSetWriterOptions options_;
  int64_t count_ = 0;
  std::string last_;  // the last value appended, once count_ > 0
  bool finished_ = false;
  bool complete_ = false;  // Finish() wrote the whole file
  uint64_t offset_ = 0;  // bytes written so far (header included)
  // Open-block state: its encoded records and its first value.
  std::string block_;
  uint64_t block_records_ = 0;
  std::string block_first_;
  std::vector<BlockMeta> blocks_;
};

/// Options for SortedSetReader.
struct SortedSetReaderOptions {
  /// Honor the footer zonemap in SkipToAtLeast(). With false the call
  /// degrades to the linear scan it replaces — same values, same
  /// tuples_read — which is what the skip-parity tests toggle.
  bool allow_block_skip = true;
};

/// \brief Block-buffered streaming cursor over a sorted-distinct value
/// file.
///
/// The footer's block is the reader's one unit: each read loads exactly
/// one block (one pread), records are decoded from it, and the current
/// value is exposed zero-copy as a std::string_view into it — the merge
/// algorithms compare millions of values without materializing a
/// std::string for each. A reader holds one block, about the writer's
/// target size (16 KiB by default).
///
/// Reads count into RunCounters::tuples_read when a counter sink is
/// attached, which is how the benchmarks measure the paper's Figure 5
/// "number of items read" metric; blocks bypassed by SkipToAtLeast() count
/// into RunCounters::blocks_skipped instead.
class SortedSetReader {
 public:
  /// Opens a block-indexed set file; a missing magic, an unsupported
  /// version or a corrupt footer fail with IOError.
  [[nodiscard]]
  static Result<std::unique_ptr<SortedSetReader>> Open(
      const std::filesystem::path& path, RunCounters* counters = nullptr,
      SortedSetReaderOptions options = {});

  ~SortedSetReader();

  SortedSetReader(const SortedSetReader&) = delete;
  SortedSetReader& operator=(const SortedSetReader&) = delete;

  /// True when another value is available.
  bool HasNext() {
    if (have_value_) return true;
    FillRecord();
    return have_value_;
  }

  /// Returns a copy of the next value and advances. Counts one tuple read.
  /// Aborts (SPIDER_CHECK) when no value is available — call HasNext()
  /// first.
  std::string Next() {
    if (!have_value_) FillRecord();
    SPIDER_CHECK(have_value_)
        << "SortedSetReader::Next() past EOF — call HasNext() first";
    std::string out(buffer_.data() + value_pos_, value_len_);
    have_value_ = false;
    if (counters_ != nullptr) ++counters_->tuples_read;
    return out;
  }

  /// Zero-copy view of the value Next() would return, without consuming it
  /// or counting a read. The view stays valid until the next Next()/Skip()
  /// on this reader. Aborts when no value is available.
  std::string_view Peek() {
    if (!have_value_) FillRecord();
    SPIDER_CHECK(have_value_)
        << "SortedSetReader::Peek() past EOF — call HasNext() first";
    return std::string_view(buffer_.data() + value_pos_, value_len_);
  }

  /// Advances past the current value without materializing a copy. Counts
  /// one tuple read. Aborts when no value is available.
  void Skip() {
    if (!have_value_) FillRecord();
    SPIDER_CHECK(have_value_)
        << "SortedSetReader::Skip() past EOF — call HasNext() first";
    have_value_ = false;
    if (counters_ != nullptr) ++counters_->tuples_read;
  }

  /// Advances the cursor to the first value >= `key`; a no-op when the
  /// current value already qualifies or the stream is exhausted. Records
  /// it decodes on the way count as tuples_read exactly like Skip(); whole
  /// blocks bypassed via the footer zonemap count only blocks_skipped.
  /// With allow_block_skip=false this is the equivalent linear scan.
  /// Errors surface through status(), as everywhere else.
  void SkipToAtLeast(std::string_view key);

  /// Blocks in the footer index.
  int64_t block_count() const { return static_cast<int64_t>(index_.size()); }

  /// Blocks this reader bypassed via SkipToAtLeast (also counted into the
  /// attached RunCounters).
  int64_t blocks_skipped() const { return blocks_skipped_; }

  /// Last I/O error, if any (clean EOF is not an error). A damaged record
  /// or a zonemap that disagrees with its block fails the reader for good:
  /// HasNext() is false from then on.
  const Status& status() const { return status_; }

 private:
  /// One footer entry: the zonemap of a block.
  struct BlockEntry {
    uint64_t offset = 0;  // absolute file offset of the first record
    uint64_t end = 0;     // one past the block's last byte
    uint64_t records = 0;
    std::string first_key;
    std::string last_key;
  };

  SortedSetReader(std::string path, int fd, RunCounters* counters,
                  SortedSetReaderOptions options);

  /// Checks the header magic and version, then parses the footer.
  [[nodiscard]]
  Status Init(uint64_t file_size);
  [[nodiscard]]
  Status ParseFooter(uint64_t file_size);

  /// Decodes the next record from the loaded block (loading the next
  /// block when it is used up), so value_pos_/value_len_ frame it
  /// contiguously in buffer_. Damage sets a sticky IOError instead.
  void FillRecord();
  /// Fails the reader for good: `what` went wrong in this file.
  void Fail(const std::string& what);

  /// Reads block `block`, and nothing else, into buffer_.
  void LoadBlock(size_t block);
  /// Repositions after the zonemap ruled out everything below `key`:
  /// binary-searches the footer for the first candidate block past
  /// cur_block_ and loads it, counting fully bypassed blocks.
  void JumpToCandidateBlock(std::string_view key);

  std::string path_;  // for error texts
  int fd_ = -1;
  RunCounters* counters_ = nullptr;
  SortedSetReaderOptions options_;
  std::vector<char> buffer_;  // the loaded block; grows to the largest
  size_t pos_ = 0;  // next unparsed byte
  size_t end_ = 0;  // the loaded block's size; 0 before the first load
  size_t value_pos_ = 0;
  size_t value_len_ = 0;
  bool have_value_ = false;
  bool eof_ = false;
  Status status_;
  int64_t blocks_skipped_ = 0;

  std::vector<BlockEntry> index_;
  size_t cur_block_ = 0;  // the loaded block
};

}  // namespace spider
