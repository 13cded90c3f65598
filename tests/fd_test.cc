// Unit tests for levelwise (approximate) FD discovery: exactness,
// minimality, NULL semantics of the distinct-tuple error, the LHS arity
// cap and the AFD threshold boundary.

#include "src/ind/fd_levelwise.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/temp_dir.h"

namespace spider {
namespace {

// Builds a string table from rows of literals (nullptr = NULL).
Table* AddTable(Catalog* catalog, const std::string& name,
                const std::vector<std::string>& columns,
                const std::vector<std::vector<const char*>>& rows) {
  auto created = catalog->CreateTable(name);
  EXPECT_TRUE(created.ok());
  Table* table = *created;
  for (const std::string& column : columns) {
    EXPECT_TRUE(table->AddColumn(column, TypeId::kString).ok());
  }
  for (const auto& row : rows) {
    std::vector<Value> values;
    for (const char* v : row) {
      values.push_back(v == nullptr ? Value::Null() : Value::String(v));
    }
    EXPECT_TRUE(table->AppendRow(std::move(values)).ok());
  }
  return table;
}

std::vector<std::string> Render(const std::vector<Fd>& fds) {
  std::vector<std::string> out;
  for (const Fd& fd : fds) out.push_back(fd.ToString());
  return out;
}

class FdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("spider-fd-test");
    ASSERT_TRUE(dir.ok());
    dir_ = std::move(*dir);
    extractor_ = std::make_unique<ValueSetExtractor>(dir_->path());
  }

  DependencyRunResult Discover(const Catalog& catalog, int max_lhs = 2,
                               double threshold = 0) {
    AlgorithmConfig config;
    config.extractor = extractor_.get();
    config.max_lhs_arity = max_lhs;
    config.error_threshold = threshold;
    FdLevelwiseAlgorithm algorithm(config, threshold > 0 ? "afd-levelwise"
                                                         : "fd-levelwise");
    auto result = algorithm.Run(catalog);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : DependencyRunResult{};
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<ValueSetExtractor> extractor_;
};

TEST_F(FdTest, ExactFdsAreFoundAndMinimal) {
  Catalog catalog;
  // a <-> b is a bijection; c determines nothing and nothing determines c.
  AddTable(&catalog, "t", {"a", "b", "c"},
           {{"x", "1", "p"}, {"x", "1", "q"}, {"y", "2", "p"}, {"y", "2", "q"}});
  auto result = Discover(catalog);
  // Composite determinants containing a satisfied subset (e.g. (a, c) -> b)
  // are pruned, so only the minimal pair survives.
  EXPECT_EQ(Render(result.fds),
            (std::vector<std::string>{"t(b -> a)", "t(a -> b)"}));
  for (const Fd& fd : result.fds) EXPECT_EQ(fd.error, 0.0);
  EXPECT_TRUE(result.finished);
  EXPECT_GT(result.tests, 0);
}

TEST_F(FdTest, CompositeDeterminantNeedsTheArityBudget) {
  Catalog catalog;
  // (a, b) -> c holds but no single column determines anything.
  AddTable(&catalog, "t", {"a", "b", "c"},
           {{"x", "1", "p"}, {"x", "2", "q"}, {"y", "1", "q"}, {"y", "2", "p"}});
  auto shallow = Discover(catalog, /*max_lhs=*/1);
  EXPECT_TRUE(shallow.fds.empty());

  auto deep = Discover(catalog, /*max_lhs=*/2);
  std::vector<std::string> rendered = Render(deep.fds);
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "t(a, b -> c)"),
            rendered.end())
      << ::testing::PrintToString(rendered);
}

TEST_F(FdTest, NullDependentRowsAreVacuous) {
  Catalog catalog;
  // Every (a, b) pair has a NULL somewhere: the projected pair set is
  // empty, so nothing can witness a violation (MATCH SIMPLE) and a -> b
  // holds vacuously with error 0.
  AddTable(&catalog, "t", {"a", "b"},
           {{"x", nullptr}, {"y", nullptr}, {nullptr, "1"}});
  auto result = Discover(catalog);
  std::vector<std::string> rendered = Render(result.fds);
  EXPECT_NE(std::find(rendered.begin(), rendered.end(), "t(a -> b)"),
            rendered.end())
      << ::testing::PrintToString(rendered);
}

TEST_F(FdTest, AfdThresholdBoundaryIsInclusive) {
  Catalog catalog;
  // g -> c has exactly one violating distinct pair out of four:
  // error = (4 - 3) / 4 = 0.25.
  AddTable(&catalog, "t", {"g", "c"},
           {{"0", "a"}, {"0", "a"}, {"0", "z"}, {"1", "b"}, {"2", "c"}});

  auto exact = Discover(catalog);
  EXPECT_EQ(Render(exact.fds), (std::vector<std::string>{"t(c -> g)"}));

  auto at = Discover(catalog, /*max_lhs=*/1, /*threshold=*/0.25);
  EXPECT_EQ(Render(at.fds),
            (std::vector<std::string>{"t(g -> c)", "t(c -> g)"}));
  for (const Fd& fd : at.fds) {
    if (fd.rhs == "c") {
      EXPECT_DOUBLE_EQ(fd.error, 0.25);
    } else {
      EXPECT_EQ(fd.error, 0.0);
    }
  }

  // Just below the measured error the approximate FD disappears again.
  auto below = Discover(catalog, /*max_lhs=*/1, /*threshold=*/0.24);
  EXPECT_EQ(Render(below.fds), (std::vector<std::string>{"t(c -> g)"}));
}

TEST_F(FdTest, EmptyAndSingleColumnTablesYieldNothing) {
  Catalog catalog;
  AddTable(&catalog, "empty", {"a", "b"}, {});
  AddTable(&catalog, "narrow", {"only"}, {{"x"}, {"y"}});
  auto result = Discover(catalog);
  EXPECT_TRUE(result.fds.empty());
  EXPECT_TRUE(result.finished);
}

TEST_F(FdTest, BudgetExpiryReturnsPartialSortedResult) {
  Catalog catalog;
  AddTable(&catalog, "t", {"a", "b", "c"},
           {{"x", "1", "p"}, {"x", "1", "q"}, {"y", "2", "p"}, {"y", "2", "q"}});
  AlgorithmConfig config;
  config.extractor = extractor_.get();
  FdLevelwiseAlgorithm algorithm(config, "fd-levelwise");
  RunContext context;
  CancellationToken cancelled;
  cancelled.Cancel();
  context.cancel = &cancelled;
  auto result = algorithm.Run(catalog, context);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->finished);
  EXPECT_TRUE(result->fds.empty());
}

}  // namespace
}  // namespace spider
