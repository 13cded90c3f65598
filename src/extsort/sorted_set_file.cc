#include "src/extsort/sorted_set_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/value_codec.h"
#include "src/extsort/readahead.h"

namespace spider {

namespace {

/// Encoded size of one record: varint length header + payload.
uint64_t RecordBytes(std::string_view value) {
  uint64_t len = value.size();
  uint64_t header = 1;
  while (len >= 0x80) {
    len >>= 7;
    ++header;
  }
  return header + value.size();
}

void AppendLengthPrefixed(std::string* out, std::string_view value) {
  EncodeVarint(out, value.size());
  out->append(value.data(), value.size());
}

void AppendFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t DecodeFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

Result<std::unique_ptr<SortedSetWriter>> SortedSetWriter::Create(
    const std::filesystem::path& path, SortedSetWriterOptions options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create " + path.string());
  auto writer = std::unique_ptr<SortedSetWriter>(
      new SortedSetWriter(std::move(out), options));
  writer->out_.write(kSortedSetMagic.data(),
                     static_cast<std::streamsize>(kSortedSetMagic.size()));
  writer->out_.put(static_cast<char>(kSortedSetFormatVersion));
  if (writer->out_.fail()) {
    return Status::IOError("cannot write set-file header to " + path.string());
  }
  writer->offset_ = kSortedSetHeaderBytes;
  return writer;
}

Status SortedSetWriter::Append(std::string_view value) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (last_ && !(*last_ < value)) {
    return Status::InvalidArgument(
        "sorted-set ordering violated: '" + *last_ + "' then '" +
        std::string(value) + "'");
  }
  if (block_records_ == 0) {
    block_offset_ = offset_;
    block_first_.assign(value.data(), value.size());
  }
  SPIDER_RETURN_NOT_OK(WriteValueRecord(out_, value));
  offset_ += RecordBytes(value);
  last_ = std::string(value);
  ++count_;
  ++block_records_;
  if (offset_ - block_offset_ >= options_.target_block_bytes) SealBlock();
  return Status::OK();
}

void SortedSetWriter::SealBlock() {
  BlockMeta meta;
  meta.offset = block_offset_;
  meta.records = block_records_;
  meta.first_key = block_first_;
  meta.last_key = *last_;
  blocks_.push_back(std::move(meta));
  block_records_ = 0;
}

Status SortedSetWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (block_records_ > 0) SealBlock();
  const uint64_t footer_offset = offset_;
  std::string footer;
  EncodeVarint(&footer, blocks_.size());
  for (const BlockMeta& block : blocks_) {
    EncodeVarint(&footer, block.offset);
    EncodeVarint(&footer, block.records);
    AppendLengthPrefixed(&footer, block.first_key);
    AppendLengthPrefixed(&footer, block.last_key);
  }
  AppendFixed64(&footer, footer_offset);
  footer.append(kSortedSetMagic);
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  out_.flush();
  out_.close();
  if (out_.fail()) return Status::IOError("failed closing sorted set file");
  return Status::OK();
}

SortedSetReader::SortedSetReader(int fd, RunCounters* counters,
                                 SortedSetReaderOptions options)
    : fd_(fd), counters_(counters), options_(options) {
  options_.buffer_bytes = std::max<size_t>(options_.buffer_bytes, 16);
}

SortedSetReader::~SortedSetReader() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<SortedSetReader>> SortedSetReader::Open(
    const std::filesystem::path& path, RunCounters* counters,
    SortedSetReaderOptions options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path.string() + ": " +
                           std::strerror(errno));
  }
  if (counters != nullptr) ++counters->files_opened;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat " + path.string() + ": " +
                           std::strerror(err));
  }
  AdviseSequential(fd);
  auto reader = std::unique_ptr<SortedSetReader>(
      new SortedSetReader(fd, counters, options));
  SPIDER_RETURN_NOT_OK(
      reader->Init(path, static_cast<uint64_t>(st.st_size)));
  return reader;
}

Status SortedSetReader::Init(const std::filesystem::path& path,
                             uint64_t file_size) {
  char header[kSortedSetHeaderBytes];
  if (file_size < kSortedSetHeaderBytes ||
      !PreadExact(fd_, 0, header, kSortedSetHeaderBytes) ||
      std::string_view(header, kSortedSetMagic.size()) != kSortedSetMagic) {
    return Status::IOError("not a block-indexed set file (missing magic): " +
                           path.string());
  }
  const auto version =
      static_cast<unsigned char>(header[kSortedSetMagic.size()]);
  if (version != kSortedSetFormatVersion) {
    return Status::IOError("unsupported set-file format version " +
                           std::to_string(version) + " in " + path.string());
  }
  return ParseFooter(path, file_size);
}

Status SortedSetReader::ParseFooter(const std::filesystem::path& path,
                                    uint64_t file_size) {
  if (file_size < kSortedSetHeaderBytes + 1 + kSortedSetTrailerBytes) {
    return Status::IOError("truncated block-indexed set file " +
                           path.string());
  }
  char trailer[kSortedSetTrailerBytes];
  if (!PreadExact(fd_, file_size - kSortedSetTrailerBytes, trailer,
                  kSortedSetTrailerBytes) ||
      std::string_view(trailer + 8, kSortedSetMagic.size()) !=
          kSortedSetMagic) {
    return Status::IOError("missing set-file trailer in " + path.string() +
                           " (file truncated?)");
  }
  const uint64_t footer_offset = DecodeFixed64(trailer);
  if (footer_offset < kSortedSetHeaderBytes ||
      footer_offset > file_size - kSortedSetTrailerBytes) {
    return Status::IOError("corrupt footer offset in " + path.string());
  }
  const size_t footer_len =
      static_cast<size_t>(file_size - kSortedSetTrailerBytes - footer_offset);
  std::vector<char> footer(footer_len);
  if (!PreadExact(fd_, footer_offset, footer.data(), footer_len)) {
    return Status::IOError("cannot read set-file footer of " + path.string());
  }
  size_t p = 0;
  auto next_byte = [&]() -> int {
    if (p == footer.size()) return -1;
    return static_cast<unsigned char>(footer[p++]);
  };
  auto corrupt = [&path]() {
    return Status::IOError("corrupt set-file footer in " + path.string());
  };
  uint64_t block_count = 0;
  if (DecodeVarint(next_byte, &block_count) != VarintDecode::kOk) {
    return corrupt();
  }
  index_.reserve(block_count);
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockEntry entry;
    uint64_t first_len = 0;
    uint64_t last_len = 0;
    if (DecodeVarint(next_byte, &entry.offset) != VarintDecode::kOk ||
        DecodeVarint(next_byte, &entry.records) != VarintDecode::kOk ||
        DecodeVarint(next_byte, &first_len) != VarintDecode::kOk) {
      return corrupt();
    }
    if (footer.size() - p < first_len) return corrupt();
    entry.first_key.assign(footer.data() + p, first_len);
    p += first_len;
    if (DecodeVarint(next_byte, &last_len) != VarintDecode::kOk ||
        footer.size() - p < last_len) {
      return corrupt();
    }
    entry.last_key.assign(footer.data() + p, last_len);
    p += last_len;
    if (entry.records == 0 || entry.offset < kSortedSetHeaderBytes ||
        entry.first_key > entry.last_key) {
      return corrupt();
    }
    if (!index_.empty() &&
        (entry.offset <= index_.back().offset ||
         entry.first_key <= index_.back().last_key)) {
      return corrupt();  // blocks must be disjoint and ascending
    }
    index_.push_back(std::move(entry));
  }
  if (p != footer.size()) return corrupt();
  for (size_t i = 0; i < index_.size(); ++i) {
    index_[i].end =
        i + 1 < index_.size() ? index_[i + 1].offset : footer_offset;
    if (index_[i].end <= index_[i].offset) return corrupt();
  }
  if (index_.empty()) eof_ = true;  // a sealed empty set
  return Status::OK();
}

size_t SortedSetReader::WindowEnd(size_t first) const {
  const uint64_t begin = index_[first].offset;
  // At least the whole first block, then as many more as fit the budget.
  const uint64_t cap =
      std::max<uint64_t>(options_.buffer_bytes, index_[first].end - begin);
  size_t last = first;
  while (last + 1 < index_.size() && index_[last + 1].end - begin <= cap) {
    ++last;
  }
  return last;
}

void SortedSetReader::LoadWindow(size_t first) {
  const size_t last = WindowEnd(first);
  const uint64_t begin = index_[first].offset;
  const size_t bytes = static_cast<size_t>(index_[last].end - begin);
  if (buffer_.size() < bytes) buffer_.resize(bytes);
  if (!PreadExact(fd_, begin, buffer_.data(), bytes)) {
    status_ = Status::IOError("failed reading set-file block window");
    return;
  }
  window_begin_ = begin;
  pos_ = 0;
  end_ = bytes;
  window_last_ = last;
  cur_block_ = first;
}

void SortedSetReader::FillRecord() {
  if (have_value_ || eof_ || !status_.ok()) return;
  if (pos_ == end_) {
    if (window_last_ + 1 >= index_.size()) {
      eof_ = true;
      return;
    }
    LoadWindow(window_last_ + 1);
    if (!status_.ok()) return;
  }
  const uint64_t record_offset = window_begin_ + pos_;
  while (record_offset >= index_[cur_block_].end) ++cur_block_;
  uint64_t len = 0;
  switch (DecodeVarint(
      [this]() -> int {
        if (pos_ == end_) return -1;
        return static_cast<unsigned char>(buffer_[pos_++]);
      },
      &len)) {
    case VarintDecode::kOk:
      break;
    default:
      // Windows end at block boundaries and records never span blocks, so
      // any EOF mid-record here is corruption, never a clean end.
      status_ = Status::IOError("corrupt record in block-indexed set file");
      return;
  }
  if (len > end_ - pos_) {
    status_ = Status::IOError(
        "record crosses a block boundary (corrupt set file)");
    return;
  }
  value_pos_ = pos_;
  value_len_ = static_cast<size_t>(len);
  pos_ += value_len_;
  have_value_ = true;
  // Zonemap soundness checks at the block edges: a footer whose keys do
  // not match the records it indexes would make SkipToAtLeast skip values
  // it must not, so a mismatch is a hard stop, not a Status.
  const BlockEntry& block = index_[cur_block_];
  const std::string_view value(buffer_.data() + value_pos_, value_len_);
  if (record_offset == block.offset) {
    SPIDER_CHECK(value == block.first_key)
        << "zonemap out of sync: block " << cur_block_
        << " first key does not match its footer entry";
  }
  if (window_begin_ + pos_ == block.end) {
    SPIDER_CHECK(value == block.last_key)
        << "zonemap out of sync: block " << cur_block_
        << " last key does not match its footer entry";
  }
}

void SortedSetReader::JumpToCandidateBlock(std::string_view key) {
  // First block past the current one whose last key reaches `key`; every
  // block in between cannot contain a qualifying value.
  size_t lo = cur_block_ + 1;
  size_t hi = index_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (index_[mid].last_key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == index_.size()) {
    // Nothing left can match: bypass every remaining whole block.
    const int64_t skipped =
        static_cast<int64_t>(index_.size() - cur_block_ - 1);
    blocks_skipped_ += skipped;
    if (counters_ != nullptr) counters_->blocks_skipped += skipped;
    pos_ = end_;
    window_last_ = index_.size();  // no further window to load
    eof_ = true;
    return;
  }
  const int64_t skipped = static_cast<int64_t>(lo - cur_block_ - 1);
  blocks_skipped_ += skipped;
  if (counters_ != nullptr) counters_->blocks_skipped += skipped;
  if (lo <= window_last_) {
    // The target block is already resident; reposition within the window.
    pos_ = static_cast<size_t>(index_[lo].offset - window_begin_);
    cur_block_ = lo;
  } else {
    LoadWindow(lo);
  }
}

void SortedSetReader::SkipToAtLeast(std::string_view key) {
  while (status_.ok()) {
    if (!have_value_) {
      FillRecord();
      if (!have_value_) return;  // exhausted (or error via status())
    }
    const std::string_view value(buffer_.data() + value_pos_, value_len_);
    if (value >= key) return;
    // The current value is passed over; it was decoded, so it counts as a
    // read exactly like the Skip() it replaces.
    have_value_ = false;
    if (counters_ != nullptr) ++counters_->tuples_read;
    if (options_.allow_block_skip &&
        index_[cur_block_].last_key < key) {
      // Every remaining record of the current block is below `key` too
      // (its zonemap tops out before it) — jump via the footer index.
      JumpToCandidateBlock(key);
      if (eof_ || !status_.ok()) return;
    }
  }
}

}  // namespace spider
