#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/temp_dir.h"
#include "src/ind/partial_ind.h"
#include "src/ind/single_pass.h"
#include "src/ind/spider_merge.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class SpiderMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-merge-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
  }

  IndRunResult Run(const Catalog& catalog,
                   const std::vector<IndCandidate>& candidates) {
    ValueSetExtractor extractor(dir_->path());
    AlgorithmConfig config;
    config.extractor = &extractor;
    SpiderMergeAlgorithm algorithm(config);
    auto result = algorithm.Run(catalog, candidates);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(SpiderMergeTest, SatisfiedAndRefuted) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  testing::AddStringColumn(&catalog, "x", "c", {"q"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_EQ(result.satisfied.size(), 1u);
  EXPECT_EQ(result.satisfied[0].ToString(), "d.c [= r.c");
}

TEST_F(SpiderMergeTest, EqualSetsBothDirections) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"b", "a"});
  auto result =
      Run(catalog, {{{"d", "c"}, {"r", "c"}}, {{"r", "c"}, {"d", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 2u);
}

TEST_F(SpiderMergeTest, EmptyDependentVacuouslySatisfied) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"", ""});
  testing::AddStringColumn(&catalog, "r", "c", {"a"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 1u);
}

TEST_F(SpiderMergeTest, EmptyReferencedRefutes) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a"});
  testing::AddStringColumn(&catalog, "r", "c", {""});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_TRUE(result.satisfied.empty());
}

TEST_F(SpiderMergeTest, DuplicateCandidatesDecidedOnce) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a"});
  testing::AddStringColumn(&catalog, "r", "c", {"a"});
  IndCandidate candidate{{"d", "c"}, {"r", "c"}};
  auto result = Run(catalog, {candidate, candidate});
  EXPECT_EQ(result.satisfied.size(), 1u);
}

TEST_F(SpiderMergeTest, SinglePassIoBound) {
  // Reads at most one pass over every distinct value.
  Catalog catalog;
  std::vector<std::string> big;
  for (int i = 0; i < 300; ++i) big.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "r", "c", big);
  testing::AddStringColumn(&catalog, "d1", "c", {big[0], big[5]});
  testing::AddStringColumn(&catalog, "d2", "c", {"zzz"});
  auto result = Run(catalog, {{{"d1", "c"}, {"r", "c"}},
                              {{"d2", "c"}, {"r", "c"}}});
  EXPECT_EQ(result.satisfied.size(), 1u);
  EXPECT_LE(result.counters.tuples_read, 300 + 2 + 1);
}

TEST_F(SpiderMergeTest, DropsStreamsOnceAllCandidatesDecided) {
  // d's only candidate is refuted at the very first value ("zzz" > all of
  // r's values is wrong — use a value smaller than r's first): afterwards
  // r's stream has no consumer and must be dropped, so I/O stays tiny.
  Catalog catalog;
  std::vector<std::string> big;
  for (int i = 100; i < 400; ++i) big.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "r", "c", big);
  testing::AddStringColumn(&catalog, "d", "c", {"a_tiny"});
  auto result = Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  EXPECT_TRUE(result.satisfied.empty());
  // One read of d's value, a handful of r's — far below r's 300 values.
  EXPECT_LT(result.counters.tuples_read, 20);
}

TEST_F(SpiderMergeTest, PartialModeAcceptsCoverageAboveSigma) {
  Catalog catalog;
  // 3 of 4 distinct dep values covered: coverage 0.75.
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b", "c", "x"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  IndCandidate candidate{{"d", "c"}, {"r", "c"}};

  auto run_sigma = [&](double sigma) {
    ValueSetExtractor extractor(dir_->path());
    AlgorithmConfig config;
    config.extractor = &extractor;
    config.min_coverage = sigma;
    auto result = SpiderMergeAlgorithm(config).Run(catalog, {candidate});
    EXPECT_TRUE(result.ok());
    return !result->satisfied.empty();
  };
  EXPECT_FALSE(run_sigma(1.0));
  EXPECT_FALSE(run_sigma(0.9));
  EXPECT_TRUE(run_sigma(0.75));  // boundary inclusive
  EXPECT_TRUE(run_sigma(0.5));
  EXPECT_TRUE(run_sigma(0.0));
}

TEST_F(SpiderMergeTest, PartialModeMatchesPartialIndFinder) {
  Random rng(77);
  Catalog catalog;
  const int attributes = 6;
  for (int i = 0; i < attributes; ++i) {
    std::vector<std::string> values;
    const int64_t count = rng.Uniform(0, 25);
    for (int64_t j = 0; j < count; ++j) {
      values.push_back("v" + std::to_string(rng.Uniform(0, 12)));
    }
    testing::AddStringColumn(&catalog, "t" + std::to_string(i), "c", values);
  }
  std::vector<IndCandidate> candidates;
  for (int d = 0; d < attributes; ++d) {
    for (int r = 0; r < attributes; ++r) {
      if (d != r) {
        candidates.push_back(
            {{"t" + std::to_string(d), "c"}, {"t" + std::to_string(r), "c"}});
      }
    }
  }
  for (double sigma : {1.0, 0.9, 0.6, 0.3}) {
    ValueSetExtractor merge_extractor(dir_->path());
    AlgorithmConfig merge_config;
    merge_config.extractor = &merge_extractor;
    merge_config.min_coverage = sigma;
    auto merged = SpiderMergeAlgorithm(merge_config).Run(catalog, candidates);
    ASSERT_TRUE(merged.ok());
    auto merged_set = testing::ToSet(merged->satisfied);

    ValueSetExtractor finder_extractor(dir_->path());
    PartialIndOptions finder_options;
    finder_options.extractor = &finder_extractor;
    finder_options.min_coverage = sigma;
    PartialIndFinder finder(finder_options);
    auto reference = finder.Run(catalog, candidates);
    ASSERT_TRUE(reference.ok());
    std::set<Ind> reference_set;
    for (const PartialInd& p : *reference) {
      if (p.satisfied) {
        reference_set.insert(Ind{p.candidate.dependent, p.candidate.referenced});
      }
    }
    EXPECT_EQ(merged_set, reference_set) << "sigma=" << sigma;
  }
}

// Property sweep: spider-merge equals single-pass and the hash reference.
class SpiderMergePropertyTest
    : public SpiderMergeTest,
      public ::testing::WithParamInterface<std::tuple<int, int, int>> {};

TEST_P(SpiderMergePropertyTest, AgreesWithSinglePassAndReference) {
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
  std::vector<IndCandidate> candidates;
  for (int d = 0; d < attributes; ++d) {
    for (int r = 0; r < attributes; ++r) {
      if (d != r) {
        candidates.push_back(
            {{"t" + std::to_string(d), "c"}, {"t" + std::to_string(r), "c"}});
      }
    }
  }
  auto expected = testing::NaiveSatisfiedSet(catalog, candidates);
  EXPECT_EQ(testing::ToSet(Run(catalog, candidates).satisfied), expected);

  ValueSetExtractor extractor(dir_->path());
  AlgorithmConfig config;
  config.extractor = &extractor;
  auto single = SinglePassAlgorithm(config).Run(catalog, candidates);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(testing::ToSet(single->satisfied), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpiderMergePropertyTest,
    ::testing::Combine(::testing::Values(3, 9, 27, 81, 243, 729),
                       ::testing::Values(2, 6, 10),
                       ::testing::Values(5, 50)));

}  // namespace
}  // namespace spider
