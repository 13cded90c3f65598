#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/ind/session.h"
#include "tests/test_util.h"

namespace spider {
namespace {

// Adds table "t" with string columns from rows of literals (nullptr = NULL).
Table* AddTable(Catalog* catalog, const std::vector<std::string>& columns,
                const std::vector<std::vector<const char*>>& rows) {
  Table* table = *catalog->CreateTable("t");
  for (const std::string& c : columns) {
    EXPECT_TRUE(table->AddColumn(c, TypeId::kString).ok());
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

// Runs the registered "ucc-levelwise" discoverer; max_arity < 1 selects
// its default.
DependencyRunResult FindUccs(const Catalog& catalog, int max_arity = 0) {
  SpiderSession session(catalog);
  RunOptions options;
  options.approach = "ucc-levelwise";
  options.nary_max_arity = max_arity;
  auto report = session.Run(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  EXPECT_TRUE(report->dependency.finished);
  return std::move(report).value().dependency;
}

std::vector<std::string> Render(const DependencyRunResult& result) {
  std::vector<std::string> out;
  for (const Ucc& ucc : result.uccs) out.push_back(ucc.ToString());
  return out;
}

TEST(UccTest, SingleUniqueColumn) {
  Catalog catalog;
  AddTable(&catalog, {"id", "name"}, {{"1", "a"}, {"2", "a"}, {"3", "b"}});
  EXPECT_EQ(Render(FindUccs(catalog)), (std::vector<std::string>{"t(id)"}));
}

TEST(UccTest, CompositeKeyWhenNoSingleColumnIsUnique) {
  // (a, b) unique together, neither alone.
  Catalog catalog;
  AddTable(&catalog, {"a", "b"},
           {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"}});
  EXPECT_EQ(Render(FindUccs(catalog)),
            (std::vector<std::string>{"t(a, b)"}));
}

TEST(UccTest, MinimalityExcludesSupersets) {
  // id unique alone: (id, x) must not be reported.
  Catalog catalog;
  AddTable(&catalog, {"id", "x"}, {{"1", "q"}, {"2", "q"}});
  EXPECT_EQ(Render(FindUccs(catalog)), (std::vector<std::string>{"t(id)"}));
}

TEST(UccTest, MultipleMinimalUccs) {
  // Both id and code are unique individually.
  Catalog catalog;
  AddTable(&catalog, {"id", "code", "x"},
           {{"1", "aa", "q"}, {"2", "bb", "q"}});
  EXPECT_EQ(Render(FindUccs(catalog)),
            (std::vector<std::string>{"t(code)", "t(id)"}));
}

TEST(UccTest, NullDisqualifiesKeyColumns) {
  Catalog catalog;
  AddTable(&catalog, {"id"}, {{"1"}, {nullptr}});
  EXPECT_TRUE(FindUccs(catalog).uccs.empty());
}

TEST(UccTest, EmptyTableHasNoKeys) {
  Catalog catalog;
  AddTable(&catalog, {"id"}, {});
  EXPECT_TRUE(FindUccs(catalog).uccs.empty());
}

TEST(UccTest, NoUniqueCombinationAtAll) {
  Catalog catalog;
  AddTable(&catalog, {"a", "b"}, {{"x", "y"}, {"x", "y"}});
  EXPECT_TRUE(FindUccs(catalog).uccs.empty());
}

TEST(UccTest, MaxArityBoundsSearch) {
  // Only the full (a, b, c) combination is unique.
  Catalog catalog;
  AddTable(&catalog, {"a", "b", "c"},
           {{"x", "1", "p"},
            {"x", "1", "q"},
            {"x", "2", "p"},
            {"y", "1", "p"}});
  EXPECT_TRUE(FindUccs(catalog, /*max_arity=*/2).uccs.empty());
  EXPECT_EQ(Render(FindUccs(catalog, /*max_arity=*/3)),
            (std::vector<std::string>{"t(a, b, c)"}));
}

TEST(UccTest, LobColumnsExcluded) {
  Catalog catalog;
  Table* table = *catalog.CreateTable("t");
  ASSERT_TRUE(table->AddColumn("seq", TypeId::kLob).ok());
  ASSERT_TRUE(table->AppendRow({Value::String("AAA")}).ok());
  ASSERT_TRUE(table->AppendRow({Value::String("BBB")}).ok());
  EXPECT_TRUE(FindUccs(catalog).uccs.empty());
}

TEST(UccTest, FindScansWholeCatalog) {
  Catalog catalog;
  testing::AddStringColumn(&catalog, "t1", "id", {"a", "b"});
  testing::AddStringColumn(&catalog, "t2", "x", {"q", "q"});
  const DependencyRunResult result = FindUccs(catalog);
  EXPECT_EQ(Render(result), (std::vector<std::string>{"t1(id)"}));
  EXPECT_GT(result.counters.candidates_tested, 0);
}

// Property sweep: reported UCCs are unique projections, and every reported
// UCC is minimal (each proper subset has duplicates).
class UccPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UccPropertyTest, SoundAndMinimal) {
  Random rng(static_cast<uint64_t>(GetParam()));
  Catalog catalog;
  Table* table = *catalog.CreateTable("t");
  const int cols = 4;
  for (int c = 0; c < cols; ++c) {
    ASSERT_TRUE(
        table->AddColumn("c" + std::to_string(c), TypeId::kString).ok());
  }
  for (int r = 0; r < 25; ++r) {
    std::vector<Value> row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Value::String("v" + std::to_string(rng.Uniform(0, 4))));
    }
    ASSERT_TRUE(table->AppendRow(std::move(row)).ok());
  }
  const DependencyRunResult result = FindUccs(catalog, cols);

  auto projection_unique = [&](const std::vector<std::string>& columns) {
    std::set<std::vector<std::string>> seen;
    for (int64_t r = 0; r < table->row_count(); ++r) {
      std::vector<std::string> key;
      for (const std::string& c : columns) {
        key.push_back(table->FindColumn(c)->value(r).ToCanonicalString());
      }
      if (!seen.insert(std::move(key)).second) return false;
    }
    return true;
  };

  for (const Ucc& ucc : result.uccs) {
    EXPECT_TRUE(projection_unique(ucc.columns)) << ucc.ToString();
    // Minimality: dropping any column loses uniqueness.
    for (size_t drop = 0; drop < ucc.columns.size(); ++drop) {
      std::vector<std::string> subset;
      for (size_t i = 0; i < ucc.columns.size(); ++i) {
        if (i != drop) subset.push_back(ucc.columns[i]);
      }
      if (!subset.empty()) {
        EXPECT_FALSE(projection_unique(subset)) << ucc.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, UccPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace spider
