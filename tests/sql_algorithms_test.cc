#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/ind/sql_algorithms.h"
#include "tests/test_util.h"

namespace spider {
namespace {

TEST(SqlAlgorithmsTest, JoinVerdicts) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b", "a"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  testing::AddStringColumn(&catalog, "x", "c", {"q"});
  SqlJoinAlgorithm algorithm;
  auto result = algorithm.Run(
      catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].ToString(), "d.c [= r.c");
  EXPECT_EQ(result->counters.candidates_tested, 2);
}

TEST(SqlAlgorithmsTest, MinusVerdicts) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"a", "b", "c"});
  testing::AddStringColumn(&catalog, "x", "c", {"a"});
  SqlMinusAlgorithm algorithm;
  auto result = algorithm.Run(
      catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].referenced.table, "r");
}

TEST(SqlAlgorithmsTest, NotInVerdicts) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "d", "c", {"a", "b"});
  testing::AddStringColumn(&catalog, "r", "c", {"b", "a"});
  testing::AddStringColumn(&catalog, "x", "c", {"b"});
  SqlNotInAlgorithm algorithm;
  auto result = algorithm.Run(
      catalog, {{{"d", "c"}, {"r", "c"}}, {{"d", "c"}, {"x", "c"}}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->satisfied[0].referenced.table, "r");
}

TEST(SqlAlgorithmsTest, NamesAreStable) {
  EXPECT_EQ(SqlJoinAlgorithm().name(), "sql-join");
  EXPECT_EQ(SqlMinusAlgorithm().name(), "sql-minus");
  EXPECT_EQ(SqlNotInAlgorithm().name(), "sql-not-in");
}

TEST(SqlAlgorithmsTest, MissingAttributeSurfacesError) {
  Catalog catalog;
  SqlJoinAlgorithm algorithm;
  auto result = algorithm.Run(catalog, {{{"a", "b"}, {"c", "d"}}});
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(SqlAlgorithmsTest, TimeBudgetAbortsRun) {
  // A large catalog and an effectively zero budget: the run must stop
  // early and say so.
  Catalog catalog;
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) values.push_back("v" + std::to_string(i));
  testing::AddStringColumn(&catalog, "d", "c", values);
  testing::AddStringColumn(&catalog, "r", "c", values);
  std::vector<IndCandidate> candidates;
  for (int i = 0; i < 200; ++i) candidates.push_back({{"d", "c"}, {"r", "c"}});

  RunContext context;
  context.time_budget_seconds = 1e-9;
  SqlNotInAlgorithm algorithm;
  auto result = algorithm.Run(catalog, candidates, context);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->finished);
  EXPECT_LT(result->counters.candidates_tested, 200);
}

// Property sweep: all three SQL statements agree with the hash-set
// reference on random catalogs.
class SqlAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlAgreementTest, AllStatementsMatchReference) {
  Random rng(static_cast<uint64_t>(GetParam()));
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
  auto expected = testing::NaiveSatisfiedSet(catalog, candidates);

  SqlJoinAlgorithm join;
  SqlMinusAlgorithm minus;
  SqlNotInAlgorithm not_in;
  for (IndAlgorithm* algorithm :
       std::initializer_list<IndAlgorithm*>{&join, &minus, &not_in}) {
    auto result = algorithm->Run(catalog, candidates);
    ASSERT_TRUE(result.ok()) << algorithm->name();
    EXPECT_EQ(testing::ToSet(result->satisfied), expected) << algorithm->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SqlAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace spider
