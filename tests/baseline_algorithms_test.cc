// Tests for the related-work baselines: De Marchi's inverted-index
// algorithm ([10]) and the Bell & Brockhausen join strategy ([2]).

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/ind/bell_brockhausen.h"
#include "src/ind/de_marchi.h"
#include "tests/test_util.h"

namespace spider {
namespace {

TEST(DeMarchiTest, BasicVerdicts) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b", "a"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  testing::AddStringColumn(&catalog, "x", "c", {"q"});
  DeMarchiAlgorithm algorithm;
  auto result = algorithm.Run(
      catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].ToString(), "d.c [= r.c");
}

TEST(DeMarchiTest, IndexHoldsEveryDistinctValue) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b", "a"});
  testing::AddStringColumn(&catalog, "r", "c", {"b", "c"});
  DeMarchiAlgorithm algorithm;
  auto result = algorithm.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  // distinct({a, b}) ∪ distinct({b, c}) = {a, b, c}: the preprocessing
  // footprint the paper criticizes.
  EXPECT_EQ(algorithm.last_index_entries(), 3);
}

TEST(DeMarchiTest, EmptyDependentVacuouslySatisfied) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"", ""});
  testing::AddStringColumn(&catalog, "r", "c", {"a"});
  DeMarchiAlgorithm algorithm;
  auto result = algorithm.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 1u);
}

TEST(DeMarchiTest, MissingAttributeSurfacesError) {
  Catalog catalog;
  DeMarchiAlgorithm algorithm;
  EXPECT_TRUE(algorithm.Run(catalog, {{{"a", "b"}, {"c", "d"}}})
                  .status()
                  .IsNotFound());
}

TEST(BellBrockhausenTest, BasicVerdicts) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  testing::AddStringColumn(&catalog, "x", "c", {"q"});
  BellBrockhausenAlgorithm algorithm;
  auto result = algorithm.Run(
      catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].referenced.table, "r");
}

TEST(BellBrockhausenTest, RangePretestSkipsDataTest) {
  Catalog catalog;
  // max(dep) = "z" > max(ref) = "c": pruned without a join.
  testing::AddStringColumn(&catalog, "d", "c", {"a", "z"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  BellBrockhausenAlgorithm algorithm;
  auto result = algorithm.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_EQ(result->counters.candidates_tested, 0);
  EXPECT_EQ(result->counters.candidates_pretest_pruned, 1);
}

TEST(BellBrockhausenTest, TransitivitySkipsImpliedCandidate) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "a", "c", {"x"});
  testing::AddStringColumn(&catalog, "b", "c", {"x", "y"});
  testing::AddStringColumn(&catalog, "d", "c", {"x", "y", "z"});
  BellBrockhausenAlgorithm algorithm;
  auto result = algorithm.Run(catalog, {
                                           {{"a", "c"}, {"b", "c"}},
                                           {{"b", "c"}, {"d", "c"}},
                                           {{"a", "c"}, {"d", "c"}},
                                       });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 3u);
  EXPECT_EQ(result->counters.candidates_tested, 2);
  EXPECT_EQ(result->counters.candidates_pretest_pruned, 1);
}

TEST(BellBrockhausenTest, PretestsCanBeDisabled) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "z"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  BellBrockhausenOptions options;
  options.min_max_pretest = false;
  options.use_transitivity = false;
  BellBrockhausenAlgorithm algorithm(options);
  auto result = algorithm.Run(catalog, {{{"d", "c"}, {"r", "c"}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->counters.candidates_tested, 1);
  EXPECT_TRUE(result->satisfied.empty());
}

TEST(BellBrockhausenTest, TimeBudgetAborts) {
  Catalog catalog;
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "d", "c", values);
  testing::AddStringColumn(&catalog, "r", "c", values);
  std::vector<IndCandidate> candidates(50, {{"d", "c"}, {"r", "c"}});
  BellBrockhausenOptions options;
  options.use_transitivity = false;  // otherwise the repeat is skipped
  BellBrockhausenAlgorithm algorithm(options);
  RunContext context;
  context.time_budget_seconds = 1e-9;
  auto result = algorithm.Run(catalog, candidates, context);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->finished);
}

// Property sweep: both baselines agree with the hash-set reference.
class BaselineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineAgreementTest, MatchesReference) {
  Random rng(static_cast<uint64_t>(GetParam()));
  Catalog catalog;
  const int attributes = 7;
  for (int i = 0; i < attributes; ++i) {
    std::vector<std::string> values;
    const int64_t count = rng.Uniform(0, 25);
    for (int64_t j = 0; j < count; ++j) {
      values.push_back("v" + std::to_string(rng.Uniform(0, 15)));
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

  DeMarchiAlgorithm de_marchi;
  auto dm = de_marchi.Run(catalog, candidates);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(testing::ToSet(dm->satisfied), expected);

  BellBrockhausenAlgorithm bell;
  auto bb = bell.Run(catalog, candidates);
  ASSERT_TRUE(bb.ok());
  EXPECT_EQ(testing::ToSet(bb->satisfied), expected);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineAgreementTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace spider
