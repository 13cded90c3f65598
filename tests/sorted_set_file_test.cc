#include <gtest/gtest.h>

#include <fstream>
#include <random>

#include "src/common/temp_dir.h"
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
  // Every block exceeds the 16-byte read window, so each read grows the
  // window to one whole block; records of every length decode intact.
  std::vector<std::string> values;
  for (char c = 'a'; c <= 'z'; ++c) {
    values.push_back(std::string(static_cast<size_t>(7 * (c - 'a' + 1)), c));
  }
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 24;
  auto path = WriteSet(values, "tiny.set", write_options);
  SortedSetReaderOptions read_options;
  read_options.buffer_bytes = 16;
  auto reader = SortedSetReader::Open(path, nullptr, read_options);
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
  // A single record (and thus block) larger than the read window grows the
  // buffer on demand instead of failing.
  std::vector<std::string> values = {std::string(1, 'a'),
                                     std::string(8000, 'b'),
                                     std::string(8000, 'c')};
  SortedSetWriterOptions write_options;
  write_options.target_block_bytes = 512;
  auto path = WriteSet(values, "big.set", write_options);

  SortedSetReaderOptions options;
  options.buffer_bytes = 64;
  auto reader = SortedSetReader::Open(path, nullptr, options);
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

using SortedSetFileDeathTest = SortedSetFileTest;

TEST_F(SortedSetFileDeathTest, CorruptFirstRecordTripsZonemapCheck) {
  // Flip a payload byte of the first record: the decoded key no longer
  // matches the footer's first_key and the block-entry check aborts.
  auto path = WriteSet({"aaaa", "bbbb", "cccc"}, "zfirst.set");
  {
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(static_cast<std::streamoff>(kSortedSetHeaderBytes) + 1);
    const char corrupted = 'z';
    out.write(&corrupted, 1);
  }
  auto reader = SortedSetReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_DEATH((*reader)->HasNext(), "zonemap out of sync");
}

TEST_F(SortedSetFileDeathTest, CorruptLastRecordTripsZonemapCheck) {
  // Flip the last payload byte of the final record: the block-exit check
  // against the footer's last_key aborts.
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
  EXPECT_DEATH(
      {
        while ((*reader)->HasNext()) (*reader)->Skip();
      },
      "zonemap out of sync");
}

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
