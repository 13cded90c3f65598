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
// The magic/footer constants live here and nowhere else; hand-rolled
// parsers elsewhere are rejected by the `set-format-magic` lint rule.

#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
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

/// \brief Writes a sorted-distinct value file. Enforces strict ordering:
/// every appended value must be greater than its predecessor.
class SortedSetWriter {
 public:
  [[nodiscard]]
  static Result<std::unique_ptr<SortedSetWriter>> Create(
      const std::filesystem::path& path, SortedSetWriterOptions options = {});

  /// Appends `value`; fails with InvalidArgument if ordering is violated.
  [[nodiscard]]
  Status Append(std::string_view value);

  /// Seals the last block, writes the footer index and closes the file.
  /// Must be called before reading.
  [[nodiscard]]
  Status Finish();

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

  SortedSetWriter(std::ofstream out, SortedSetWriterOptions options)
      : out_(std::move(out)), options_(options) {}

  /// Closes the open block and appends its footer entry.
  void SealBlock();

  std::ofstream out_;
  SortedSetWriterOptions options_;
  int64_t count_ = 0;
  std::optional<std::string> last_;
  bool finished_ = false;
  uint64_t offset_ = 0;  // bytes written so far (header included)
  // Open-block state.
  uint64_t block_offset_ = 0;
  uint64_t block_records_ = 0;
  std::string block_first_;
  std::vector<BlockMeta> blocks_;
};

/// Options for SortedSetReader.
struct SortedSetReaderOptions {
  /// Read-window budget. The reader loads whole blocks — as many
  /// consecutive blocks as fit the budget per read, never a partial one —
  /// so no record is ever split across reads. An oversized block still
  /// grows the buffer on demand.
  size_t buffer_bytes = 64 * 1024;
  /// Honor the footer zonemap in SkipToAtLeast(). With false the call
  /// degrades to the linear scan it replaces — same values, same
  /// tuples_read — which is what the skip-parity tests toggle.
  bool allow_block_skip = true;
};

/// \brief Block-buffered streaming cursor over a sorted-distinct value
/// file.
///
/// Records are decoded from an in-memory read window instead of per-record
/// stream reads, and the current value is exposed zero-copy as a
/// std::string_view into that window — the merge algorithms compare
/// millions of values without materializing a std::string for each.
///
/// Reads count into RunCounters::tuples_read when a counter sink is
/// attached, which is how the benchmarks measure the paper's Figure 5
/// "number of items read" metric; blocks bypassed by SkipToAtLeast() count
/// into RunCounters::blocks_skipped instead.
class SortedSetReader {
 public:
  /// Default read-window size; values larger than the window grow it.
  static constexpr size_t kDefaultBufferBytes = 64 * 1024;

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

  /// Last I/O error, if any (clean EOF is not an error).
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

  SortedSetReader(int fd, RunCounters* counters,
                  SortedSetReaderOptions options);

  /// Checks the header magic and version, then parses the footer.
  [[nodiscard]]
  Status Init(const std::filesystem::path& path, uint64_t file_size);
  [[nodiscard]]
  Status ParseFooter(const std::filesystem::path& path, uint64_t file_size);

  /// Decodes the next record so value_pos_/value_len_ frame it
  /// contiguously in buffer_.
  void FillRecord();

  /// Last block index of the read window starting at block `first`: as
  /// many whole consecutive blocks as fit buffer_bytes (at least one).
  size_t WindowEnd(size_t first) const;
  /// Loads the window starting at block `first`.
  void LoadWindow(size_t first);
  /// Repositions after the zonemap ruled out everything below `key`:
  /// binary-searches the footer for the first candidate block past
  /// cur_block_ and jumps there, counting fully bypassed blocks.
  void JumpToCandidateBlock(std::string_view key);

  int fd_ = -1;
  RunCounters* counters_ = nullptr;
  SortedSetReaderOptions options_;
  std::vector<char> buffer_;
  size_t pos_ = 0;  // next unparsed byte
  size_t end_ = 0;  // one past the last valid byte
  size_t value_pos_ = 0;
  size_t value_len_ = 0;
  bool have_value_ = false;
  bool eof_ = false;
  Status status_;
  int64_t blocks_skipped_ = 0;

  std::vector<BlockEntry> index_;
  uint64_t window_begin_ = 0;       // file offset of buffer_[0]
  size_t window_last_ = SIZE_MAX;   // last block in the window (+1 wraps to
                                    // 0 before the first load)
  size_t cur_block_ = 0;            // block owning the record at value_pos_
};

/// Metadata about a materialized sorted value set.
struct SortedSetInfo {
  std::filesystem::path path;
  /// Number of distinct non-NULL values.
  int64_t distinct_count = 0;
  /// Blocks in the file's footer index.
  int64_t block_count = 0;
  /// Smallest / largest value (canonical form); empty optionals for an
  /// empty set.
  std::optional<std::string> min_value;
  std::optional<std::string> max_value;
};

}  // namespace spider
