#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/extsort/sorted_set_file.h"
#include "src/ind/brute_force.h"
#include "src/ind/single_pass.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class SinglePassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-sp-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  IndRunResult Run(const Catalog& catalog,
                   const std::vector<IndCandidate>& candidates,
                   int max_open_files = 0) {
    ValueSetExtractor extractor(dir_->path());
    AlgorithmConfig config;
    config.extractor = &extractor;
    config.max_open_files = max_open_files;
    SinglePassAlgorithm algorithm(config);
    auto result = algorithm.Run(catalog, candidates);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SinglePassTest, SingleSatisfiedCandidate) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_EQ(result.satisfied.size(), 1u);
  EXPECT_EQ(result.satisfied[0].ToString(), "d.c [= r.c");
}

TEST_F(SinglePassTest, SingleRefutedCandidate) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "x"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_TRUE(result.satisfied.empty());
}

TEST_F(SinglePassTest, EqualSetsSatisfiedBothDirections) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"b", "a"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}, {{"r", "c"}, {"d", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 2u);
}

TEST_F(SinglePassTest, EmptyReferencedRefutes) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a"});
  testing::AddStringColumn(&catalog, "r", "c", {"", ""});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_TRUE(result.satisfied.empty());
}

TEST_F(SinglePassTest, EmptyDependentVacuouslySatisfied) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"", ""});
  testing::AddStringColumn(&catalog, "r", "c", {"a"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 1u);
}

TEST_F(SinglePassTest, ManyCandidatesOneSharedReferenced) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d1", "c", {"a"});
  testing::AddStringColumn(&catalog, "d2", "c", {"b"});
  testing::AddStringColumn(&catalog, "d3", "c", {"z"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  auto result = Run(catalog, {{{"d1", "c"}, {"r", "c"}},
                              {{"d2", "c"}, {"r", "c"}},
                              {{"d3", "c"}, {"r", "c"}}});
  auto satisfied = testing::ToSet(result.satisfied);
  EXPECT_TRUE(satisfied.contains(Ind{{"d1", "c"}, {"r", "c"}}));
  EXPECT_TRUE(satisfied.contains(Ind{{"d2", "c"}, {"r", "c"}}));
  EXPECT_FALSE(satisfied.contains(Ind{{"d3", "c"}, {"r", "c"}}));
}

TEST_F(SinglePassTest, OneDependentManyReferenced) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"m", "n"});
  testing::AddStringColumn(&catalog, "r1", "c", {"m", "n", "o"});
  testing::AddStringColumn(&catalog, "r2", "c", {"m"});
  testing::AddStringColumn(&catalog, "r3", "c", {"a", "m", "n", "z"});
  auto result = Run(catalog, {{{"d", "c"}, {"r1", "c"}},
                              {{"d", "c"}, {"r2", "c"}},
                              {{"d", "c"}, {"r3", "c"}}});
  auto satisfied = testing::ToSet(result.satisfied);
  EXPECT_TRUE(satisfied.contains(Ind{{"d", "c"}, {"r1", "c"}}));
  EXPECT_FALSE(satisfied.contains(Ind{{"d", "c"}, {"r2", "c"}}));
  EXPECT_TRUE(satisfied.contains(Ind{{"d", "c"}, {"r3", "c"}}));
}

TEST_F(SinglePassTest, DuplicateCandidatesDecidedOnce) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b"});
  IndCandidate candidate{{"d", "c"}, {"r", "c"}};
  auto result = Run(catalog, {candidate, candidate, candidate});
  EXPECT_EQ(result.satisfied.size(), 1u);
}

TEST_F(SinglePassTest, ReadsEachValueAtMostOnce) {
  // The single-pass property: total tuples read is bounded by the sum of
  // the distinct set sizes, no matter how many candidates share attributes.
  Catalog catalog;
  std::vector<std::string> big;
  for (int i = 0; i < 200; ++i) big.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "r", "c", big);
  testing::AddStringColumn(&catalog, "d1", "c", {big[0], big[10], big[20]});
  testing::AddStringColumn(&catalog, "d2", "c", {big[1], big[30]});
  testing::AddStringColumn(&catalog, "d3", "c", {"zzz"});
  auto result = Run(catalog, {{{"d1", "c"}, {"r", "c"}},
                              {{"d2", "c"}, {"r", "c"}},
                              {{"d3", "c"}, {"r", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 2u);
  // Bound: |r| + |d1| + |d2| + |d3| = 200 + 3 + 2 + 1.
  EXPECT_LE(result.counters.tuples_read, 206);
}

TEST_F(SinglePassTest, PeakOpenFilesTracksAllAttributes) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d1", "c", {"a"});
  testing::AddStringColumn(&catalog, "d2", "c", {"a"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b"});
  auto result = Run(catalog, {{{"d1", "c"}, {"r", "c"}},
                              {{"d2", "c"}, {"r", "c"}}});
  EXPECT_EQ(result.counters.peak_open_files, 3);
}

TEST_F(SinglePassTest, BlockwiseLimitsOpenFiles) {
  Catalog catalog;
  for (int i = 0; i < 6; ++i) {
    testing::AddStringColumn(&catalog, "d" + std::to_string(i), "c", {"a"});
  }
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b"});
  std::vector<IndCandidate> candidates;
  for (int i = 0; i < 6; ++i) {
    candidates.push_back({{"d" + std::to_string(i), "c"}, {"r", "c"}});
  }
  auto unbounded = Run(catalog, candidates, 0);
  EXPECT_EQ(unbounded.counters.peak_open_files, 7);
  auto bounded = Run(catalog, candidates, 3);
  EXPECT_LE(bounded.counters.peak_open_files, 3);
  EXPECT_EQ(testing::ToSet(unbounded.satisfied), testing::ToSet(bounded.satisfied));
  EXPECT_EQ(bounded.satisfied.size(), 6u);
}

// dep = {a, b, zzz}, ref = {a, b}: the dependent's set file is written,
// the length byte of its record `record` is set to 0x7F (a length past the
// block's end), and single-pass runs over the damaged file. A read error is
// not an exhausted set: the run fails instead of reporting dep ⊆ ref.
Status RunOnDamagedDependentRecord(const std::filesystem::path& dir,
                                   int record) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "dep", "v", {"a", "b", "zzz"});
  testing::AddStringColumn(&catalog, "ref", "v", {"a", "b"});
  ValueSetExtractor extractor(dir);
  auto info = extractor.Extract(catalog, AttributeRef{"dep", "v"});
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  if (!info.ok()) return info.status();
  // Records "a" and "b" take two bytes each after the header.
  {
    std::fstream file(info->path,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(kSortedSetHeaderBytes) +
               2 * record);
    file.put('\x7f');
  }
  AlgorithmConfig config;
  config.extractor = &extractor;
  return SinglePassAlgorithm(config)
      .Run(catalog, {{{"dep", "v"}, {"ref", "v"}}})
      .status();
}

TEST_F(SinglePassTest, DamagedFirstDependentRecordFailsTheRun) {
  const Status status = RunOnDamagedDependentRecord(dir_->path(), 0);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST_F(SinglePassTest, DamagedSecondDependentRecordFailsTheRun) {
  const Status status = RunOnDamagedDependentRecord(dir_->path(), 1);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

// The id partitioner over named candidates, its blocks named back.
std::vector<std::vector<IndCandidate>> NamedBlocks(
    const std::vector<IndCandidate>& candidates, int max_open_files) {
  const InternedCandidates interned = InternCandidates(candidates);
  std::vector<std::vector<IndCandidate>> blocks;
  for (const std::vector<AttributePair>& block :
       PartitionCandidatesByFileBudget(interned.attributes.size(),
                                       interned.pairs, max_open_files)) {
    blocks.push_back(NamePairs<IndCandidate>(interned.attributes, block));
  }
  return blocks;
}

TEST(PartitionCandidatesTest, RespectsBudget) {
  std::vector<IndCandidate> candidates;
  for (int d = 0; d < 5; ++d) {
    for (int r = 0; r < 4; ++r) {
      candidates.push_back(
          {{"d" + std::to_string(d), "c"}, {"r" + std::to_string(r), "c"}});
    }
  }
  for (int budget : {2, 3, 5, 8}) {
    auto blocks = NamedBlocks(candidates, budget);
    size_t total = 0;
    for (const auto& block : blocks) {
      std::set<AttributeRef> deps;
      std::set<AttributeRef> refs;
      for (const IndCandidate& c : block) {
        deps.insert(c.dependent);
        refs.insert(c.referenced);
      }
      EXPECT_LE(static_cast<int>(deps.size() + refs.size()), budget)
          << "budget " << budget;
      total += block.size();
    }
    EXPECT_EQ(total, candidates.size());
  }
}

// The blockwise greedy as first written: both attribute sets copied per
// candidate. Kept as the reference the linear partitioner must reproduce.
std::vector<std::vector<IndCandidate>> SetBasedBlocks(
    const std::vector<IndCandidate>& candidates, int max_open_files) {
  std::vector<std::vector<IndCandidate>> blocks;
  if (candidates.empty()) return blocks;
  if (max_open_files <= 0) {
    blocks.push_back(candidates);
    return blocks;
  }
  std::vector<IndCandidate> current;
  std::set<AttributeRef> dep_attrs;
  std::set<AttributeRef> ref_attrs;
  for (const IndCandidate& candidate : candidates) {
    std::set<AttributeRef> new_deps = dep_attrs;
    std::set<AttributeRef> new_refs = ref_attrs;
    new_deps.insert(candidate.dependent);
    new_refs.insert(candidate.referenced);
    int64_t files = static_cast<int64_t>(new_deps.size() + new_refs.size());
    if (!current.empty() && files > max_open_files) {
      blocks.push_back(std::move(current));
      current.clear();
      dep_attrs.clear();
      ref_attrs.clear();
      dep_attrs.insert(candidate.dependent);
      ref_attrs.insert(candidate.referenced);
    } else {
      dep_attrs = std::move(new_deps);
      ref_attrs = std::move(new_refs);
    }
    current.push_back(candidate);
  }
  if (!current.empty()) blocks.push_back(std::move(current));
  return blocks;
}

TEST(PartitionCandidatesTest, MatchesTheSetBasedGreedyOnRandomCandidates) {
  Random rng(20061);
  for (int round = 0; round < 40; ++round) {
    // Few attributes force repeats, duplicate candidates and a ⊆ a pairs.
    const int64_t attributes = rng.Uniform(1, 40);
    const int64_t count = rng.Uniform(0, 400);
    std::vector<IndCandidate> candidates;
    candidates.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      candidates.push_back(
          {{"t" + std::to_string(rng.Uniform(0, 2)),
            "c" + std::to_string(rng.Uniform(0, attributes - 1))},
           {"t" + std::to_string(rng.Uniform(0, 2)),
            "c" + std::to_string(rng.Uniform(0, attributes - 1))}});
    }
    for (int budget : {0, 2, 3, 5, 8, 17, 64, 1024}) {
      EXPECT_EQ(NamedBlocks(candidates, budget),
                SetBasedBlocks(candidates, budget))
          << "round " << round << " budget " << budget;
    }
  }
}

TEST(PartitionCandidatesTest, UnlimitedBudgetIsOneBlock) {
  std::vector<IndCandidate> candidates = {{{"a", "c"}, {"b", "c"}},
                                          {{"c", "c"}, {"d", "c"}}};
  auto blocks = NamedBlocks(candidates, 0);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].size(), 2u);
}

TEST(PartitionCandidatesTest, EmptyInput) {
  EXPECT_TRUE(NamedBlocks({}, 4).empty());
}

// Property sweep: on random catalogs the single-pass result equals both the
// brute-force result and an independent hash-set reference.
class SinglePassPropertyTest
    : public SinglePassTest,
      public ::testing::WithParamInterface<std::tuple<int, int, int>> {};

TEST_P(SinglePassPropertyTest, AgreesWithBruteForceAndReference) {
  auto [seed, attributes, universe] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  Catalog catalog;
  for (int i = 0; i < attributes; ++i) {
    std::vector<std::string> values;
    const int64_t count = rng.Uniform(0, 30);
    for (int64_t j = 0; j < count; ++j) {
      values.push_back("v" + std::to_string(rng.Uniform(0, universe)));
    }
    testing::AddStringColumn(&catalog, "t" + std::to_string(i), "c", values);
  }
  // All ordered pairs as candidates (no pretests: stress the engine).
  std::vector<IndCandidate> candidates;
  for (int d = 0; d < attributes; ++d) {
    for (int r = 0; r < attributes; ++r) {
      if (d == r) continue;
      candidates.push_back(
          {{"t" + std::to_string(d), "c"}, {"t" + std::to_string(r), "c"}});
    }
  }

  auto expected = testing::NaiveSatisfiedSet(catalog, candidates);
  auto single_pass = Run(catalog, candidates);
  EXPECT_EQ(testing::ToSet(single_pass.satisfied), expected);

  ValueSetExtractor extractor(dir_->path());
  AlgorithmConfig config;
  config.extractor = &extractor;
  auto brute = BruteForceAlgorithm(config).Run(catalog, candidates);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(testing::ToSet(brute->satisfied), expected);

  // Blockwise agrees too.
  auto blocked = Run(catalog, candidates, 4);
  EXPECT_EQ(testing::ToSet(blocked.satisfied), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SinglePassPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 21, 42),
                       ::testing::Values(2, 5, 9),
                       ::testing::Values(4, 40)));

}  // namespace
}  // namespace spider
