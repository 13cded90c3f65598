#include "src/extsort/sorted_set_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"
#include "src/common/value_codec.h"
#include "src/common/file_io.h"

namespace spider {

namespace {

/// Fewest bytes one footer entry takes: four one-byte varints (offset,
/// record count and the two key lengths).
constexpr size_t kMinFooterEntryBytes = 4;

}  // namespace

Result<std::unique_ptr<SortedSetWriter>> SortedSetWriter::Create(
    const std::filesystem::path& path, SortedSetWriterOptions options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot create " + path.string());
  auto writer = std::unique_ptr<SortedSetWriter>(
      new SortedSetWriter(std::move(out), path, options));
  writer->out_.write(kSortedSetMagic.data(),
                     static_cast<std::streamsize>(kSortedSetMagic.size()));
  writer->out_.put(static_cast<char>(kSortedSetFormatVersion));
  if (writer->out_.fail()) {
    return Status::IOError("cannot write set-file header to " + path.string());
  }
  writer->offset_ = kSortedSetHeaderBytes;
  return writer;
}

SortedSetWriter::~SortedSetWriter() {
  if (complete_) return;
  out_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort
}

Status SortedSetWriter::Append(std::string_view value) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (count_ > 0 && !(last_ < value)) {
    return Status::InvalidArgument("sorted-set ordering violated: '" + last_ +
                                   "' then '" + std::string(value) + "'");
  }
  if (block_records_ == 0) block_first_.assign(value.data(), value.size());
  AppendLengthPrefixed(&block_, value);
  last_.assign(value.data(), value.size());
  ++count_;
  ++block_records_;
  if (block_.size() >= options_.target_block_bytes) return SealBlock();
  return Status::OK();
}

Status SortedSetWriter::SealBlock() {
  blocks_.push_back(
      BlockMeta{offset_, block_records_, std::move(block_first_), last_});
  out_.write(block_.data(), static_cast<std::streamsize>(block_.size()));
  offset_ += block_.size();
  block_.clear();
  block_records_ = 0;
  if (out_.fail()) {
    return Status::IOError("failed writing a block of " + path_.string());
  }
  return Status::OK();
}

Result<SortedSetInfo> SortedSetWriter::Finish() {
  if (!finished_) {
    finished_ = true;
    if (block_records_ > 0) SPIDER_RETURN_NOT_OK(SealBlock());
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
    out_.close();
    complete_ = !out_.fail();
  }
  if (!complete_) {
    return Status::IOError("failed writing sorted set file " + path_.string());
  }
  SortedSetInfo info;
  info.path = path_;
  info.distinct_count = count_;
  return info;
}

SortedSetReader::SortedSetReader(std::string path, int fd,
                                 RunCounters* counters,
                                 SortedSetReaderOptions options)
    : path_(std::move(path)), fd_(fd), counters_(counters), options_(options) {}

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
      new SortedSetReader(path.string(), fd, counters, options));
  SPIDER_RETURN_NOT_OK(reader->Init(static_cast<uint64_t>(st.st_size)));
  return reader;
}

Status SortedSetReader::Init(uint64_t file_size) {
  char header[kSortedSetHeaderBytes];
  if (file_size < kSortedSetHeaderBytes ||
      !PreadExact(fd_, 0, header, kSortedSetHeaderBytes) ||
      std::string_view(header, kSortedSetMagic.size()) != kSortedSetMagic) {
    return Status::IOError("not a block-indexed set file (missing magic): " +
                           path_);
  }
  const auto version =
      static_cast<unsigned char>(header[kSortedSetMagic.size()]);
  if (version != kSortedSetFormatVersion) {
    return Status::IOError("unsupported set-file format version " +
                           std::to_string(version) + " in " + path_);
  }
  return ParseFooter(file_size);
}

Status SortedSetReader::ParseFooter(uint64_t file_size) {
  if (file_size < kSortedSetHeaderBytes + 1 + kSortedSetTrailerBytes) {
    return Status::IOError("truncated block-indexed set file " +
                           path_);
  }
  char trailer[kSortedSetTrailerBytes];
  if (!PreadExact(fd_, file_size - kSortedSetTrailerBytes, trailer,
                  kSortedSetTrailerBytes) ||
      std::string_view(trailer + 8, kSortedSetMagic.size()) !=
          kSortedSetMagic) {
    return Status::IOError("missing set-file trailer in " + path_ +
                           " (file truncated?)");
  }
  const uint64_t footer_offset = DecodeFixed64(trailer);
  if (footer_offset < kSortedSetHeaderBytes ||
      footer_offset > file_size - kSortedSetTrailerBytes) {
    return Status::IOError("corrupt footer offset in " + path_);
  }
  const size_t footer_len =
      static_cast<size_t>(file_size - kSortedSetTrailerBytes - footer_offset);
  std::string footer(footer_len, '\0');
  if (!PreadExact(fd_, footer_offset, footer.data(), footer_len)) {
    return Status::IOError("cannot read set-file footer of " + path_);
  }
  auto corrupt = [this]() {
    return Status::IOError("corrupt set-file footer in " + path_);
  };
  SpanReader in(footer);
  uint64_t block_count = 0;
  if (!in.Count(kMinFooterEntryBytes, &block_count)) return corrupt();
  index_.reserve(block_count);
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockEntry entry;
    if (!in.Varint(&entry.offset) || !in.Varint(&entry.records) ||
        !in.String(&entry.first_key) || !in.String(&entry.last_key) ||
        entry.records == 0 || entry.offset < kSortedSetHeaderBytes ||
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
  if (in.remaining() != 0) return corrupt();
  for (size_t i = 0; i < index_.size(); ++i) {
    index_[i].end =
        i + 1 < index_.size() ? index_[i + 1].offset : footer_offset;
    if (index_[i].end <= index_[i].offset) return corrupt();
  }
  if (index_.empty()) eof_ = true;  // a sealed empty set
  return Status::OK();
}

void SortedSetReader::Fail(const std::string& what) {
  status_ = Status::IOError(what + " in set file " + path_);
}

void SortedSetReader::LoadBlock(size_t block) {
  const BlockEntry& entry = index_[block];
  const size_t bytes = static_cast<size_t>(entry.end - entry.offset);
  if (buffer_.size() < bytes) buffer_.resize(bytes);
  if (!PreadExact(fd_, entry.offset, buffer_.data(), bytes)) {
    Fail("failed reading block " + std::to_string(block));
    return;
  }
  cur_block_ = block;
  pos_ = 0;
  end_ = bytes;
}

void SortedSetReader::FillRecord() {
  if (have_value_ || eof_ || !status_.ok()) return;
  if (pos_ == end_) {
    // The loaded block is used up: load the next one (block 0 before the
    // first load).
    const size_t next = end_ == 0 ? 0 : cur_block_ + 1;
    if (next == index_.size()) {
      eof_ = true;
      return;
    }
    LoadBlock(next);
    if (!status_.ok()) return;
  }
  // buffer_ holds this block and nothing else, so a damaged length cannot
  // reach into the next one.
  const bool first = pos_ == 0;
  SpanReader record(std::string_view(buffer_.data() + pos_, end_ - pos_));
  uint64_t len = 0;
  std::string_view value;
  if (!record.Varint(&len) || !record.Bytes(len, &value)) {
    Fail("corrupt record");
    return;
  }
  value_pos_ = static_cast<size_t>(value.data() - buffer_.data());
  value_len_ = value.size();
  pos_ = value_pos_ + value_len_;
  // Zonemap soundness checks at the block edges: a footer whose keys do
  // not match the records it indexes would make SkipToAtLeast skip values
  // it must not, so the value is withheld and the reader fails for good.
  const BlockEntry& block = index_[cur_block_];
  if ((first && value != block.first_key) ||
      (pos_ == end_ && value != block.last_key)) {
    Fail("zonemap out of sync: block " + std::to_string(cur_block_) +
         " does not match its footer entry");
    return;
  }
  have_value_ = true;
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
  const int64_t skipped = static_cast<int64_t>(lo - cur_block_ - 1);
  blocks_skipped_ += skipped;
  if (counters_ != nullptr) counters_->blocks_skipped += skipped;
  if (lo == index_.size()) {
    eof_ = true;  // nothing left can match
    return;
  }
  LoadBlock(lo);
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
