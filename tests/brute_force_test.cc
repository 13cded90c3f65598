#include <gtest/gtest.h>

#include "src/common/temp_dir.h"
#include "src/ind/brute_force.h"
#include "tests/test_util.h"

namespace spider {
namespace {

class BruteForceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-bf-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(dir).value();
    extractor_ = std::make_unique<ValueSetExtractor>(dir_->path());
  }

  // Tests a single candidate over two string columns.
  bool Test(const std::vector<std::string>& dep,
            const std::vector<std::string>& ref, RunCounters* counters = nullptr,
            bool early_stop = true) {
    Catalog catalog;
    testing::AddStringColumn(&catalog, "d", "c", dep);
    testing::AddStringColumn(&catalog, "r", "c", ref);
    auto dep_info = extractor_->Extract(catalog, {"d", "c"});
    auto ref_info = extractor_->Extract(catalog, {"r", "c"});
    EXPECT_TRUE(dep_info.ok());
    EXPECT_TRUE(ref_info.ok());
    auto verdict =
        TestCandidateBruteForce(*dep_info, *ref_info, counters, early_stop);
    EXPECT_TRUE(verdict.ok());
    // Fresh extractor per call keeps attribute names reusable.
    extractor_ = std::make_unique<ValueSetExtractor>(dir_->path());
    return *verdict;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<ValueSetExtractor> extractor_;
};

TEST_F(BruteForceTest, SatisfiedSubset) {
  EXPECT_TRUE(Test({"a", "b"}, {"a", "b", "c"}));
}

TEST_F(BruteForceTest, SatisfiedEqualSets) {
  EXPECT_TRUE(Test({"a", "b", "c"}, {"a", "b", "c"}));
}

TEST_F(BruteForceTest, RefutedMissingMiddleValue) {
  EXPECT_FALSE(Test({"a", "b", "c"}, {"a", "c"}));
}

TEST_F(BruteForceTest, RefutedBeyondReferencedMax) {
  EXPECT_FALSE(Test({"a", "z"}, {"a", "b", "c"}));
}

TEST_F(BruteForceTest, RefutedBelowReferencedMin) {
  EXPECT_FALSE(Test({"a", "x"}, {"m", "x", "z"}));
}

TEST_F(BruteForceTest, EmptyDependentIsVacuouslySatisfied) {
  EXPECT_TRUE(Test({}, {"a"}));
}

TEST_F(BruteForceTest, EmptyReferencedRefutesNonEmptyDependent) {
  EXPECT_FALSE(Test({"a"}, {}));
}

TEST_F(BruteForceTest, BothEmptySatisfied) {
  EXPECT_TRUE(Test({}, {}));
}

TEST_F(BruteForceTest, DuplicatesInInputAreIrrelevant) {
  EXPECT_TRUE(Test({"b", "a", "b", "a"}, {"c", "a", "b", "a"}));
}

TEST_F(BruteForceTest, NullsAreIgnored) {
  EXPECT_TRUE(Test({"a", "", "b"}, {"a", "b"}));
}

TEST_F(BruteForceTest, EarlyStopReadsFewerTuples) {
  // Dependent's first value "000" is smaller than every referenced value:
  // with early stop, the test ends after one comparison.
  std::vector<std::string> dep{"000"};
  std::vector<std::string> ref;
  for (int i = 0; i < 100; ++i) ref.push_back("ref" + std::to_string(i));
  dep.insert(dep.end(), ref.begin(), ref.end());  // rest would match

  RunCounters with_stop;
  EXPECT_FALSE(Test(dep, ref, &with_stop, /*early_stop=*/true));
  RunCounters without_stop;
  EXPECT_FALSE(Test(dep, ref, &without_stop, /*early_stop=*/false));
  EXPECT_LT(with_stop.tuples_read, without_stop.tuples_read);
  EXPECT_LT(with_stop.comparisons, without_stop.comparisons);
}

TEST_F(BruteForceTest, EarlyStopOffGivesSameVerdicts) {
  const std::vector<std::vector<std::string>> sets = {
      {}, {"a"}, {"a", "b"}, {"a", "b", "c"}, {"b", "z"}};
  for (const auto& dep : sets) {
    for (const auto& ref : sets) {
      EXPECT_EQ(Test(dep, ref, nullptr, true), Test(dep, ref, nullptr, false));
    }
  }
}

TEST_F(BruteForceTest, RunOverCatalogCollectsSatisfiedInds) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "child", "fk", {"a", "b", "a"});
  testing::AddStringColumn(&catalog, "parent", "pk", {"a", "b", "c"}, true);
  testing::AddStringColumn(&catalog, "other", "pk", {"x", "y", "z"}, true);

  AlgorithmConfig config;
  config.extractor = extractor_.get();
  BruteForceAlgorithm algorithm(config);
  std::vector<IndCandidate> candidates = {
      {{"child", "fk"}, {"parent", "pk"}},
      {{"child", "fk"}, {"other", "pk"}},
  };
  auto result = algorithm.Run(catalog, candidates);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->counters.candidates_tested, 2);
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].ToString(), "child.fk [= parent.pk");
  EXPECT_TRUE(result->finished);
  EXPECT_GE(result->seconds, 0);
}

TEST_F(BruteForceTest, TransitivityPrunerSkipsImpliedCandidates) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "a", "c", {"x"});
  testing::AddStringColumn(&catalog, "b", "c", {"x", "y"}, true);
  testing::AddStringColumn(&catalog, "d", "c", {"x", "y", "z"}, true);

  TransitivityPruner pruner;
  AlgorithmConfig config;
  config.extractor = extractor_.get();
  BruteForceOptions options;
  options.transitivity = &pruner;
  BruteForceAlgorithm algorithm(config, options);

  // a ⊆ b and b ⊆ d are tested; a ⊆ d then follows without a data test.
  std::vector<IndCandidate> candidates = {
      {{"a", "c"}, {"b", "c"}},
      {{"b", "c"}, {"d", "c"}},
      {{"a", "c"}, {"d", "c"}},
  };
  auto result = algorithm.Run(catalog, candidates);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 3u);
  EXPECT_EQ(result->counters.candidates_tested, 2);
  EXPECT_EQ(result->counters.candidates_pretest_pruned, 1);
}

TEST_F(BruteForceTest, MissingAttributeSurfacesError) {
  Catalog catalog;
  AlgorithmConfig config;
  config.extractor = extractor_.get();
  BruteForceAlgorithm algorithm(config);
  auto result = algorithm.Run(catalog, {{{"no", "such"}, {"not", "there"}}});
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace spider
