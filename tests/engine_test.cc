#include <gtest/gtest.h>

#include "src/engine/column_scan.h"
#include "src/engine/operators.h"

namespace spider {
namespace {

Column MakeColumn(const std::vector<const char*>& values) {
  Column col("c", TypeId::kString);
  for (const char* v : values) {
    col.Append(v == nullptr ? Value::Null() : Value::String(v));
  }
  return col;
}

TEST(ColumnScanTest, SkipsNullsAndCountsRows) {
  Column col = MakeColumn({"a", nullptr, "b", nullptr});
  RunCounters counters;
  engine::ColumnScan scan(col, &counters);
  std::vector<std::string> got;
  while (scan.HasNext()) got.push_back(scan.Next());
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  // All 4 rows were fetched by the scan node, including NULL rows.
  EXPECT_EQ(counters.engine_rows_scanned, 4);
}

TEST(ColumnScanTest, RewindRestarts) {
  Column col = MakeColumn({"x", "y"});
  engine::ColumnScan scan(col, nullptr);
  EXPECT_EQ(scan.Next(), "x");
  scan.Rewind();
  EXPECT_EQ(scan.Next(), "x");
}

TEST(HashJoinTest, CountsMatchedDependentRows) {
  Column dep = MakeColumn({"a", "b", "a", "z", nullptr});
  Column ref = MakeColumn({"a", "b", "c"});
  RunCounters counters;
  // Rows "a", "b", "a" match; "z" does not; NULL is not probed.
  EXPECT_EQ(*engine::HashJoinMatchCount(dep, ref, &counters), 3);
  EXPECT_GT(counters.engine_rows_scanned, 0);
}

TEST(HashJoinTest, FullInclusionMatchesNonNullCount) {
  Column dep = MakeColumn({"a", "b", "a", nullptr});
  Column ref = MakeColumn({"a", "b", "c"});
  EXPECT_EQ(*engine::HashJoinMatchCount(dep, ref, nullptr),
            dep.non_null_count());
}

TEST(HashJoinTest, EmptyInputs) {
  Column empty = MakeColumn({});
  Column ref = MakeColumn({"a"});
  EXPECT_EQ(*engine::HashJoinMatchCount(empty, ref, nullptr), 0);
  EXPECT_EQ(*engine::HashJoinMatchCount(ref, empty, nullptr), 0);
}

TEST(SortDistinctTest, SortsAndDedups) {
  Column col = MakeColumn({"b", "a", "b", nullptr, "c"});
  auto values = *engine::SortDistinct(col, nullptr);
  EXPECT_EQ(values, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(MinusCountTest, CountsDistinctUnmatched) {
  Column dep = MakeColumn({"a", "b", "b", "d", "e"});
  Column ref = MakeColumn({"b", "c", "e"});
  // distinct(dep) \ distinct(ref) = {a, d}.
  EXPECT_EQ(*engine::MinusCount(dep, ref, nullptr), 2);
}

TEST(MinusCountTest, ZeroWhenIncluded) {
  Column dep = MakeColumn({"a", "a", "b"});
  Column ref = MakeColumn({"a", "b", "c"});
  EXPECT_EQ(*engine::MinusCount(dep, ref, nullptr), 0);
}

TEST(MinusCountTest, EmptyDependent) {
  Column dep = MakeColumn({nullptr});
  Column ref = MakeColumn({"a"});
  EXPECT_EQ(*engine::MinusCount(dep, ref, nullptr), 0);
}

TEST(MinusCountTest, EmptyReferenced) {
  Column dep = MakeColumn({"a", "b"});
  Column ref = MakeColumn({});
  EXPECT_EQ(*engine::MinusCount(dep, ref, nullptr), 2);
}

TEST(NotInCountTest, CountsUnmatchedRows) {
  // NOT IN counts ROWS (not distinct values): "z" twice -> 2.
  Column dep = MakeColumn({"a", "z", "z", nullptr});
  Column ref = MakeColumn({"a", "b"});
  EXPECT_EQ(*engine::NotInCount(dep, ref, nullptr), 2);
}

TEST(NotInCountTest, ZeroWhenIncluded) {
  Column dep = MakeColumn({"a", "b", "a"});
  Column ref = MakeColumn({"b", "a"});
  EXPECT_EQ(*engine::NotInCount(dep, ref, nullptr), 0);
}

TEST(NotInCountTest, ReferencedNullsAreSkipped) {
  Column dep = MakeColumn({"a"});
  Column ref = MakeColumn({nullptr, "a"});
  EXPECT_EQ(*engine::NotInCount(dep, ref, nullptr), 0);
}

TEST(OperatorAgreementTest, AllThreeStatementsAgreeOnVerdict) {
  const std::vector<std::vector<const char*>> deps = {
      {"a", "b"}, {"a", "x"}, {}, {"q", "q", "q"}};
  const std::vector<std::vector<const char*>> refs = {
      {"a", "b", "c"}, {"a"}, {"q"}, {}};
  for (const auto& d : deps) {
    for (const auto& r : refs) {
      Column dep = MakeColumn(d);
      Column ref = MakeColumn(r);
      const bool join_verdict =
          *engine::HashJoinMatchCount(dep, ref, nullptr) == dep.non_null_count();
      const bool minus_verdict = *engine::MinusCount(dep, ref, nullptr) == 0;
      const bool notin_verdict = *engine::NotInCount(dep, ref, nullptr) == 0;
      EXPECT_EQ(join_verdict, minus_verdict);
      EXPECT_EQ(join_verdict, notin_verdict);
    }
  }
}

TEST(OperatorCostTest, NotInScansMoreThanJoin) {
  // The nested-loop anti join re-scans the inner column per outer row, so
  // its row count exceeds the hash join's single pass over each input.
  std::vector<const char*> many;
  for (int i = 0; i < 50; ++i) many.push_back("zz");  // never matches
  Column dep = MakeColumn(many);
  Column ref = MakeColumn({"a", "b", "c", "d"});
  RunCounters join_counters;
  RunCounters notin_counters;
  *engine::HashJoinMatchCount(dep, ref, &join_counters);
  *engine::NotInCount(dep, ref, &notin_counters);
  EXPECT_GT(notin_counters.engine_rows_scanned,
            join_counters.engine_rows_scanned);
}

}  // namespace
}  // namespace spider
