#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/temp_dir.h"
#include "src/extsort/external_sorter.h"
#include "src/extsort/sorted_set_file.h"

namespace spider {
namespace {

class SortedSetFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-set-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  std::filesystem::path WriteSet(const std::vector<std::string>& values,
                                 const std::string& name = "a.set",
                                 SortedSetWriterOptions options = {}) {
    auto path = dir_->FilePath(name);
    auto writer = SortedSetWriter::Create(path, options);
    EXPECT_TRUE(writer.ok());
    for (const auto& v : values) EXPECT_TRUE((*writer)->Append(v).ok());
    EXPECT_TRUE((*writer)->Finish().ok());
    return path;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SortedSetFileTest, WriteAndReadBack) {
  auto path = WriteSet({"apple", "banana", "cherry"});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> got;
  while ((*reader)->HasNext()) got.push_back((*reader)->Next());
  EXPECT_EQ(got, (std::vector<std::string>{"apple", "banana", "cherry"}));
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(SortedSetFileTest, WriterRejectsOutOfOrder) {
  auto writer = SortedSetWriter::Create(dir_->FilePath("bad.set"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("b").ok());
  EXPECT_TRUE((*writer)->Append("a").IsInvalidArgument());
}

TEST_F(SortedSetFileTest, WriterRejectsDuplicates) {
  auto writer = SortedSetWriter::Create(dir_->FilePath("dup.set"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("a").ok());
  EXPECT_TRUE((*writer)->Append("a").IsInvalidArgument());
}

TEST_F(SortedSetFileTest, WriterCountsValues) {
  auto writer = SortedSetWriter::Create(dir_->FilePath("c.set"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("x").ok());
  ASSERT_TRUE((*writer)->Append("y").ok());
  EXPECT_EQ((*writer)->count(), 2);
}

TEST_F(SortedSetFileTest, AppendAfterFinishFails) {
  auto writer = SortedSetWriter::Create(dir_->FilePath("f.set"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_TRUE((*writer)->Append("x").IsInvalidArgument());
  // Finish is idempotent.
  EXPECT_TRUE((*writer)->Finish().ok());
}

TEST_F(SortedSetFileTest, EmptySet) {
  auto path = WriteSet({});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->HasNext());
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(SortedSetFileTest, PeekDoesNotConsumeOrCount) {
  RunCounters counters;
  auto path = WriteSet({"a", "b"});
  auto reader = SortedSetReader::Open(path, &counters);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE((*reader)->HasNext());
  EXPECT_EQ((*reader)->Peek(), "a");
  EXPECT_EQ((*reader)->Peek(), "a");
  EXPECT_EQ(counters.tuples_read, 0);
  EXPECT_EQ((*reader)->Next(), "a");
  EXPECT_EQ(counters.tuples_read, 1);
  EXPECT_EQ((*reader)->Next(), "b");
  EXPECT_EQ(counters.tuples_read, 2);
  EXPECT_FALSE((*reader)->HasNext());
}

TEST_F(SortedSetFileTest, OpenCountsFiles) {
  RunCounters counters;
  auto path = WriteSet({"a"});
  auto r1 = SortedSetReader::Open(path, &counters);
  auto r2 = SortedSetReader::Open(path, &counters);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(counters.files_opened, 2);
}

TEST_F(SortedSetFileTest, OpenMissingFileFails) {
  EXPECT_TRUE(SortedSetReader::Open(dir_->FilePath("missing.set"))
                  .status()
                  .IsIOError());
}

// Names in the test directory, sorted.
std::vector<std::string> ListDir(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> ReadAll(const std::filesystem::path& path) {
  std::vector<std::string> values;
  auto reader = SortedSetReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return values;
  while ((*reader)->HasNext()) values.push_back((*reader)->Next());
  EXPECT_TRUE((*reader)->status().ok());
  return values;
}

// The writer writes the path it is given; publishing the file is its
// caller's step. Finish() reports the file as a reader sees it, and a
// writer dropped before Finish() removes its file.
TEST_F(SortedSetFileTest, FinishReportsTheFileADroppedWriterRemovesIt) {
  SortedSetWriterOptions options;
  options.target_block_bytes = 32;
  const std::filesystem::path path = dir_->FilePath("x.set");
  auto writer = SortedSetWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*writer)->Append("value-" + std::to_string(100 + i)).ok());
  }
  auto info = (*writer)->Finish();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const std::vector<std::string> values = ReadAll(path);
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(info->path, path);
  EXPECT_EQ(info->distinct_count, static_cast<int64_t>(values.size()));
  ASSERT_EQ(values.size(), 40u);
  EXPECT_EQ(values.front(), "value-100");
  EXPECT_EQ(values.back(), "value-139");
  EXPECT_GT((*reader)->block_count(), 1);

  auto empty = SortedSetWriter::Create(dir_->FilePath("empty.set"));
  ASSERT_TRUE(empty.ok());
  auto empty_info = (*empty)->Finish();
  ASSERT_TRUE(empty_info.ok()) << empty_info.status().ToString();
  EXPECT_EQ(empty_info->distinct_count, 0);
  EXPECT_TRUE(ReadAll(empty_info->path).empty());
  auto empty_reader = SortedSetReader::Open(empty_info->path);
  ASSERT_TRUE(empty_reader.ok());
  EXPECT_EQ((*empty_reader)->block_count(), 0);

  {
    auto dropped = SortedSetWriter::Create(dir_->FilePath("dropped.set"));
    ASSERT_TRUE(dropped.ok());
    ASSERT_TRUE((*dropped)->Append("never").ok());
  }
  EXPECT_EQ(ListDir(dir_->path()),
            (std::vector<std::string>{"empty.set", "x.set"}));
}

TEST_F(SortedSetFileTest, ValuesWithEmbeddedNewlines) {
  auto path = WriteSet({"a\nb", "c"});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->Next(), "a\nb");
  EXPECT_EQ((*reader)->Next(), "c");
}

TEST_F(SortedSetFileTest, SkipAdvancesAndCountsWithoutCopying) {
  RunCounters counters;
  auto path = WriteSet({"a", "b", "c"});
  auto reader = SortedSetReader::Open(path, &counters);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->Peek(), "a");
  (*reader)->Skip();
  EXPECT_EQ(counters.tuples_read, 1);
  EXPECT_EQ((*reader)->Peek(), "b");
  (*reader)->Skip();
  EXPECT_EQ((*reader)->Next(), "c");
  EXPECT_EQ(counters.tuples_read, 3);
  EXPECT_FALSE((*reader)->HasNext());
}

TEST_F(SortedSetFileTest, PeekViewStaysValidUntilAdvance) {
  auto path = WriteSet({"alpha", "beta"});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string_view first = (*reader)->Peek();
  // Repeated peeks and HasNext() must not invalidate or move the view.
  ASSERT_TRUE((*reader)->HasNext());
  std::string_view again = (*reader)->Peek();
  EXPECT_EQ(first.data(), again.data());
  EXPECT_EQ(first, "alpha");
}

TEST_F(SortedSetFileTest, TinyBufferStillDecodesEveryRecord) {
  // Each block is loaded whole and the blocks lengthen with their records,
  // so the buffer grows with every longer block; records of every length
  // decode intact.
  std::vector<std::string> values;
  for (char c = 'a'; c <= 'z'; ++c) {
    values.push_back(std::string(static_cast<size_t>(7 * (c - 'a' + 1)), c));
  }
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 24;
  auto path = WriteSet(values, "tiny.set", write_options);
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> got;
  while ((*reader)->HasNext()) got.push_back((*reader)->Next());
  EXPECT_EQ(got, values);
  EXPECT_TRUE((*reader)->status().ok());
}

// --- Block-indexed format ------------------------------------------------

// Only the block-indexed format exists: a file without the magic — such
// as a bare record stream — is rejected with IOError instead of being
// guessed at. Callers treat set files as a cache and re-extract.
TEST_F(SortedSetFileTest, FileWithoutMagicIsRejected) {
  auto blocked = SortedSetReader::Open(WriteSet({"apple", "banana"}));
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ((*blocked)->block_count(), 1);

  const auto flat = dir_->FilePath("flat.set");
  {
    // Two length-prefixed records, no header, no footer.
    std::ofstream out(flat, std::ios::binary);
    out << '\x05' << "apple" << '\x06' << "banana";
  }
  auto rejected = SortedSetReader::Open(flat);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsIOError()) << rejected.status().ToString();

  const auto empty = dir_->FilePath("empty.set");
  { std::ofstream out(empty, std::ios::binary); }
  EXPECT_TRUE(SortedSetReader::Open(empty).status().IsIOError());
}

TEST_F(SortedSetFileTest, MultiBlockRoundTrip) {
  // A tiny block target forces many blocks; every record must still come
  // back in order, and writer and reader must agree on the block count.
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back("key-" + std::to_string(1000 + i));
  }
  SortedSetWriterOptions options;
  options.target_block_bytes = 64;
  auto path = dir_->FilePath("multi.set");
  auto writer = SortedSetWriter::Create(path, options);
  ASSERT_TRUE(writer.ok());
  for (const auto& v : values) ASSERT_TRUE((*writer)->Append(v).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_GT((*writer)->block_count(), 10);

  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->block_count(), (*writer)->block_count());
  std::vector<std::string> got;
  while ((*reader)->HasNext()) got.push_back((*reader)->Next());
  EXPECT_EQ(got, values);
  EXPECT_TRUE((*reader)->status().ok());
}

uint64_t HashFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return HashString(bytes);
}

// Every byte of the .set format, for a multi-block set written directly and
// for one an ExternalSorter merges from several spill runs. The constants
// are FNV hashes of the files as the format stands; a change to any block
// boundary, record encoding or footer field breaks them.
TEST_F(SortedSetFileTest, SetBytesArePinned) {
  std::vector<std::string> values{""};
  for (int i = 0; i < 1000; ++i) {
    values.push_back("v" + std::to_string(100000 + i * 37));
  }
  values.push_back(std::string(300, 'z'));  // a two-byte length varint
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 64;
  const auto direct = WriteSet(values, "direct.set", write_options);

  ExternalSorterOptions sort_options;
  sort_options.memory_budget_bytes = 16 << 10;
  sort_options.spill_dir = dir_->path();
  ExternalSorter sorter(sort_options);
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sorter.Add("key-" + std::to_string(i * 7919 % 4000)).ok());
  }
  ASSERT_GE(sorter.spill_count(), 2);
  auto sorted = sorter.WriteSortedSet(dir_->FilePath("sorted.set"));
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(sorted->distinct_count, 4000);
  auto sorted_reader = SortedSetReader::Open(sorted->path);
  ASSERT_TRUE(sorted_reader.ok());
  EXPECT_GE((*sorted_reader)->block_count(), 2);

  EXPECT_EQ(HashFile(direct), 9708098214354640615ULL);
  EXPECT_EQ(HashFile(sorted->path), 8235940205893582045ULL);
}

TEST_F(SortedSetFileTest, SkipToAtLeastMatchesLinearScanReference) {
  // Property test: on the same monotone key sequence, the zonemap path and
  // the forced linear scan must land on identical values and read counts
  // that differ only by records the zonemap never decoded.
  std::mt19937 rng(20260808);
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back("v" + std::to_string(100000 + i * 7));
  }
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 128;
  auto path = WriteSet(values, "prop.set", write_options);

  for (int round = 0; round < 5; ++round) {
    SortedSetReaderOptions skip_options;
    skip_options.allow_block_skip = true;
    SortedSetReaderOptions linear_options;
    linear_options.allow_block_skip = false;
    auto skip = SortedSetReader::Open(path, nullptr, skip_options);
    auto linear = SortedSetReader::Open(path, nullptr, linear_options);
    ASSERT_TRUE(skip.ok());
    ASSERT_TRUE(linear.ok());

    std::uniform_int_distribution<int> step(0, 400);
    int target = 100000;
    while (true) {
      target += step(rng) * 7 + step(rng) % 3;  // sometimes between records
      const std::string key = "v" + std::to_string(target);
      (*skip)->SkipToAtLeast(key);
      (*linear)->SkipToAtLeast(key);
      ASSERT_EQ((*skip)->HasNext(), (*linear)->HasNext()) << key;
      if (!(*skip)->HasNext()) break;
      ASSERT_EQ((*skip)->Peek(), (*linear)->Peek()) << key;
      ASSERT_GE((*skip)->Peek(), key);
    }
    EXPECT_TRUE((*skip)->status().ok());
    EXPECT_TRUE((*linear)->status().ok());
    EXPECT_GT((*skip)->blocks_skipped(), 0);
    EXPECT_EQ((*linear)->blocks_skipped(), 0);
  }
}

TEST_F(SortedSetFileTest, SkipToAtLeastAccounting) {
  // Bypassed blocks count blocks_skipped, never tuples_read; records
  // decoded on the way inside a block count tuples_read exactly like
  // Skip().
  std::vector<std::string> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back("k" + std::to_string(10000 + i));
  }
  SortedSetWriterOptions options;
  options.target_block_bytes = 128;
  auto path = WriteSet(values, "acct.set", options);

  RunCounters counters;
  auto reader = SortedSetReader::Open(path, &counters);
  ASSERT_TRUE(reader.ok());
  ASSERT_GT((*reader)->block_count(), 4);
  (*reader)->SkipToAtLeast("k10900");
  ASSERT_TRUE((*reader)->HasNext());
  EXPECT_EQ((*reader)->Peek(), "k10900");
  EXPECT_GT((*reader)->blocks_skipped(), 0);
  EXPECT_EQ(counters.blocks_skipped, (*reader)->blocks_skipped());
  // The zonemap jump must have decoded far fewer records than the 900 a
  // linear scan pays (at most the two partially-scanned boundary blocks).
  EXPECT_LT(counters.tuples_read, 100);

  // A skip target below the current value is a no-op and counts nothing.
  const int64_t tuples_before = counters.tuples_read;
  const int64_t blocks_before = counters.blocks_skipped;
  (*reader)->SkipToAtLeast("k10000");
  EXPECT_EQ((*reader)->Peek(), "k10900");
  EXPECT_EQ(counters.tuples_read, tuples_before);
  EXPECT_EQ(counters.blocks_skipped, blocks_before);

  // Skipping past EOF consumes the tail without a value.
  (*reader)->SkipToAtLeast("z");
  EXPECT_FALSE((*reader)->HasNext());
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(SortedSetFileTest, BlockBiggerThanBufferStillDecodes) {
  // A single record (and thus block) larger than the buffer so far grows
  // it on demand instead of failing.
  std::vector<std::string> values = {std::string(1, 'a'),
                                     std::string(8000, 'b'),
                                     std::string(8000, 'c')};
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 512;
  auto path = WriteSet(values, "big.set", write_options);

  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> got;
  while ((*reader)->HasNext()) got.push_back((*reader)->Next());
  EXPECT_EQ(got, values);
  EXPECT_TRUE((*reader)->status().ok());
}

TEST_F(SortedSetFileTest, TruncatedFooterFailsCleanly) {
  // A blocked file whose trailer survives but whose footer bytes are
  // damaged must fail Open with IOError, not crash.
  auto path = WriteSet({"aa", "bb", "cc"}, "trunc.set");
  const auto size = std::filesystem::file_size(path);
  uint64_t footer_offset = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(size) -
             static_cast<std::streamoff>(kSortedSetTrailerBytes));
    for (int i = 0; i < 8; ++i) {
      char byte = 0;
      in.read(&byte, 1);
      footer_offset |= static_cast<uint64_t>(static_cast<unsigned char>(byte))
                       << (8 * i);
    }
  }
  {
    // Clobber the footer's block-count varint with a continuation byte:
    // the decoded count can no longer match the footer's real extent.
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(static_cast<std::streamoff>(footer_offset));
    const char corrupted = '\xff';
    out.write(&corrupted, 1);
  }
  auto reader = SortedSetReader::Open(path);
  EXPECT_TRUE(reader.status().IsIOError());
}

// A footer whose zonemap disagrees with its block is damage: the reader
// withholds the value, fails with an IOError and stays failed.
void ExpectZonemapError(SortedSetReader& reader) {
  EXPECT_FALSE(reader.HasNext());
  EXPECT_TRUE(reader.status().IsIOError()) << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("zonemap"), std::string::npos)
      << reader.status().ToString();
}

TEST_F(SortedSetFileTest, CorruptFirstRecordFailsTheZonemapCheck) {
  // Flip a payload byte of the first record: the decoded key no longer
  // matches the footer's first_key.
  auto path = WriteSet({"aaaa", "bbbb", "cccc"}, "zfirst.set");
  {
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(static_cast<std::streamoff>(kSortedSetHeaderBytes) + 1);
    const char corrupted = 'z';
    out.write(&corrupted, 1);
  }
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  ExpectZonemapError(**reader);
  EXPECT_FALSE((*reader)->HasNext());
}

TEST_F(SortedSetFileTest, CorruptLastRecordFailsTheZonemapCheck) {
  // Flip the last payload byte of the final record: the block-exit check
  // against the footer's last_key fails.
  auto path = WriteSet({"aaaa", "bbbb", "cccc"}, "zlast.set");
  const auto size = std::filesystem::file_size(path);
  // Footer offset is the 8 bytes before the closing magic; the last record
  // payload ends right where the footer begins.
  uint64_t footer_offset = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(size) -
             static_cast<std::streamoff>(kSortedSetTrailerBytes));
    for (int i = 0; i < 8; ++i) {
      char byte = 0;
      in.read(&byte, 1);
      footer_offset |= static_cast<uint64_t>(static_cast<unsigned char>(byte))
                       << (8 * i);
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(static_cast<std::streamoff>(footer_offset) - 1);
    const char corrupted = 'z';
    out.write(&corrupted, 1);
  }
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<std::string> read;
  while ((*reader)->HasNext()) read.push_back((*reader)->Next());
  EXPECT_EQ(read, (std::vector<std::string>{"aaaa", "bbbb"}));
  ExpectZonemapError(**reader);
}

TEST_F(SortedSetFileTest, RecordCannotSwallowTheNextBlock) {
  // Two five-byte records fill each 10-byte block. Raising bbbb's length
  // byte (offset 14) from 4 to 9 makes the record reach into the next
  // block: it must read as damage, never as the value "bbbb\x04cccc" with
  // the set's status OK.
  SortedSetWriterOptions options;
  options.target_block_bytes = 10;
  const std::vector<std::string> values{"aaaa", "bbbb", "cccc", "dddd"};
  auto path = WriteSet(values, "swallow.set", options);
  {
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(14);
    const char raised = 9;
    out.write(&raised, 1);
  }
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ((*reader)->block_count(), 2);
  const std::string swallowed("bbbb\x04" "cccc");
  std::vector<std::string> read;
  while ((*reader)->HasNext()) read.push_back((*reader)->Next());
  EXPECT_EQ(std::count(read.begin(), read.end(), swallowed), 0);
  EXPECT_TRUE((*reader)->status().IsIOError())
      << (*reader)->status().ToString();
  EXPECT_NE((*reader)->status().message().find(path.string()),
            std::string::npos)
      << (*reader)->status().ToString();
}

using SortedSetFileDeathTest = SortedSetFileTest;

TEST_F(SortedSetFileDeathTest, NextPastEofAborts) {
  // Regression: Next() at EOF used to dereference an empty std::optional
  // (undefined behavior); it must now fail a clean CHECK.
  auto path = WriteSet({"only"});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->Next(), "only");
  EXPECT_DEATH((*reader)->Next(), "past EOF");
}

TEST_F(SortedSetFileDeathTest, PeekPastEofAborts) {
  auto path = WriteSet({});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_DEATH((*reader)->Peek(), "past EOF");
}

TEST_F(SortedSetFileDeathTest, SkipPastEofAborts) {
  auto path = WriteSet({});
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_DEATH((*reader)->Skip(), "past EOF");
}

}  // namespace
}  // namespace spider
