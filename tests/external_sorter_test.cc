#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/extsort/external_sorter.h"
#include "src/extsort/sorted_set_file.h"

namespace spider {
namespace {

class ExternalSorterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-sort-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  ExternalSorterOptions Options(int64_t budget) {
    ExternalSorterOptions options;
    options.memory_budget_bytes = budget;
    options.spill_dir = dir_->path();
    return options;
  }

  std::vector<std::string> ReadAll(const std::filesystem::path& path) {
    auto reader = SortedSetReader::Open(path);
    EXPECT_TRUE(reader.ok());
    std::vector<std::string> out;
    while ((*reader)->HasNext()) out.push_back((*reader)->Next());
    return out;
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(ExternalSorterTest, InMemorySortAndDedup) {
  ExternalSorter sorter(Options(1 << 20));
  for (const char* v : {"pear", "apple", "pear", "fig", "apple"}) {
    ASSERT_TRUE(sorter.Add(v).ok());
  }
  EXPECT_EQ(sorter.spill_count(), 0);
  auto info = sorter.WriteSortedSet(dir_->FilePath("out.set"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, 3);
  EXPECT_EQ(ReadAll(info->path),
            (std::vector<std::string>{"apple", "fig", "pear"}));
}

TEST_F(ExternalSorterTest, EmptyInput) {
  ExternalSorter sorter(Options(1 << 20));
  auto info = sorter.WriteSortedSet(dir_->FilePath("empty.set"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, 0);
  EXPECT_TRUE(ReadAll(info->path).empty());
}

TEST_F(ExternalSorterTest, SpillPathProducesSameResult) {
  // Budget of 64 bytes forces a spill every couple of values.
  ExternalSorter spilling(Options(64));
  ExternalSorter in_memory(Options(1 << 20));
  Random rng(99);
  for (int i = 0; i < 500; ++i) {
    std::string v = rng.AlphaString(1, 6);
    ASSERT_TRUE(spilling.Add(v).ok());
    ASSERT_TRUE(in_memory.Add(v).ok());
  }
  EXPECT_GT(spilling.spill_count(), 1);
  auto a = spilling.WriteSortedSet(dir_->FilePath("spill.set"));
  auto b = in_memory.WriteSortedSet(dir_->FilePath("mem.set"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->distinct_count, b->distinct_count);
  EXPECT_EQ(ReadAll(a->path), ReadAll(b->path));
}

TEST_F(ExternalSorterTest, DuplicatesAcrossSpillRunsAreMerged) {
  ExternalSorter sorter(Options(48));
  // "dup" appears in several runs; output must contain it once.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sorter.Add("dup").ok());
    ASSERT_TRUE(sorter.Add("val" + std::to_string(i)).ok());
  }
  ASSERT_GT(sorter.spill_count(), 1);
  auto info = sorter.WriteSortedSet(dir_->FilePath("d.set"));
  ASSERT_TRUE(info.ok());
  auto values = ReadAll(info->path);
  EXPECT_EQ(std::count(values.begin(), values.end(), "dup"), 1);
  EXPECT_EQ(info->distinct_count, 51);
}

TEST_F(ExternalSorterTest, PaperScaleSpillForcesManyRunsAndMergesThem) {
  // The external-sort path the paper relies on at PDB scale: far more data
  // than the memory budget, so WriteSortedSet() must k-way merge many spill
  // runs (not just buffer + one run) while deduplicating across all of
  // them.
  ExternalSorterOptions options = Options(512);
  ExternalSorter sorter(options);
  std::set<std::string> reference;
  Random rng(2026);
  for (int i = 0; i < 20000; ++i) {
    // Skewed duplicates: every run contains overlapping hot values.
    std::string v = "v" + std::to_string(rng.Uniform(0, 5000));
    reference.insert(v);
    ASSERT_TRUE(sorter.Add(std::move(v)).ok());
  }
  EXPECT_GE(sorter.spill_count(), 8);
  auto info = sorter.WriteSortedSet(dir_->FilePath("paper.set"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, static_cast<int64_t>(reference.size()));
  EXPECT_EQ(ReadAll(info->path),
            std::vector<std::string>(reference.begin(), reference.end()));
}

TEST_F(ExternalSorterTest, RunPrefixKeepsSortersInOneDirApart) {
  // Concurrent extractions share one spill directory: distinct attributes
  // in one process (distinct prefixes), and the same attribute extracted
  // by two processes sharing a workspace (the same prefix). Neither may
  // read the other's transient run files.
  for (const auto& [a_prefix, b_prefix] :
       {std::pair<std::string, std::string>{"attr_a", "attr_b"},
        std::pair<std::string, std::string>{"attr", "attr"}}) {
    SCOPED_TRACE(a_prefix + " / " + b_prefix);
    ExternalSorterOptions a_options = Options(64);
    a_options.run_prefix = a_prefix;
    ExternalSorterOptions b_options = Options(64);
    b_options.run_prefix = b_prefix;
    ExternalSorter a(a_options);
    ExternalSorter b(b_options);
    std::vector<std::string> a_values;
    std::vector<std::string> b_values;
    for (int i = 0; i < 100; ++i) {
      a_values.push_back("a" + std::to_string(i));
      b_values.push_back("b" + std::to_string(i));
      ASSERT_TRUE(a.Add(a_values.back()).ok());
      ASSERT_TRUE(b.Add(b_values.back()).ok());
    }
    ASSERT_GT(a.spill_count(), 1);
    ASSERT_GT(b.spill_count(), 1);
    auto a_info = a.WriteSortedSet(dir_->FilePath(a_prefix + "-a.set"));
    auto b_info = b.WriteSortedSet(dir_->FilePath(b_prefix + "-b.set"));
    ASSERT_TRUE(a_info.ok());
    ASSERT_TRUE(b_info.ok());
    std::sort(a_values.begin(), a_values.end());
    std::sort(b_values.begin(), b_values.end());
    EXPECT_EQ(a_info->distinct_count, 100);
    EXPECT_EQ(b_info->distinct_count, 100);
    EXPECT_EQ(ReadAll(a_info->path), a_values);
    EXPECT_EQ(ReadAll(b_info->path), b_values);
  }
}

TEST_F(ExternalSorterTest, AddAfterFinishFails) {
  ExternalSorter sorter(Options(1 << 20));
  ASSERT_TRUE(sorter.Add("x").ok());
  ASSERT_TRUE(sorter.WriteSortedSet(dir_->FilePath("x.set")).ok());
  EXPECT_TRUE(sorter.Add("y").IsInvalidArgument());
  EXPECT_TRUE(
      sorter.WriteSortedSet(dir_->FilePath("y.set")).status().IsInvalidArgument());
}

TEST_F(ExternalSorterTest, DamagedSpillRunFailsTheSort) {
  // A spill run is a set file, read back through the set reader: a damaged
  // record fails the sort, naming the run, instead of merging a made-up
  // value into the output.
  ExternalSorter sorter(Options(256));
  for (int i = 0; i < 100; ++i) {
    char value[5];
    std::snprintf(value, sizeof(value), "k%03d", i);
    ASSERT_TRUE(sorter.Add(value).ok());
  }
  ASSERT_GE(sorter.spill_count(), 2);
  std::vector<std::filesystem::path> runs;
  for (const auto& entry : std::filesystem::directory_iterator(dir_->path())) {
    runs.push_back(entry.path());
  }
  std::sort(runs.begin(), runs.end());
  ASSERT_EQ(static_cast<int>(runs.size()), sorter.spill_count());
  const std::filesystem::path damaged = runs[runs.size() / 2];
  {
    // The length byte of the run's first record, just after the header,
    // made 5 bytes longer.
    std::fstream file(damaged, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(kSortedSetHeaderBytes);
    char length = 0;
    file.read(&length, 1);
    file.seekp(kSortedSetHeaderBytes);
    length = static_cast<char>(length + 5);
    file.write(&length, 1);
    ASSERT_TRUE(file.good());
  }

  const std::filesystem::path out = dir_->FilePath("out.set");
  auto info = sorter.WriteSortedSet(out);
  ASSERT_FALSE(info.ok());
  EXPECT_TRUE(info.status().IsIOError()) << info.status().ToString();
  EXPECT_NE(info.status().message().find(damaged.string()), std::string::npos)
      << info.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(out));
}

// Property sweep: external sort output equals a std::set reference for
// many (seed, size, budget) combinations.
class ExternalSorterPropertyTest
    : public ExternalSorterTest,
      public ::testing::WithParamInterface<std::tuple<int, int, int>> {};

TEST_P(ExternalSorterPropertyTest, MatchesReferenceSet) {
  auto [seed, count, budget] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  ExternalSorter sorter(Options(budget));
  std::set<std::string> reference;
  for (int i = 0; i < count; ++i) {
    std::string v = rng.AlphaString(0, 8);
    reference.insert(v);
    ASSERT_TRUE(sorter.Add(std::move(v)).ok());
  }
  auto info = sorter.WriteSortedSet(dir_->FilePath("p.set"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->distinct_count, static_cast<int64_t>(reference.size()));
  EXPECT_EQ(ReadAll(info->path),
            std::vector<std::string>(reference.begin(), reference.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSorterPropertyTest,
    ::testing::Combine(::testing::Values(1, 7, 42),
                       ::testing::Values(0, 1, 100, 2000),
                       ::testing::Values(64, 4096, 1 << 20)));

}  // namespace
}  // namespace spider
