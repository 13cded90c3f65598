#include <gtest/gtest.h>

#include "src/storage/column_stats.h"

namespace spider {
namespace {

Column MakeStringColumn(const std::vector<const char*>& values) {
  Column col("c", TypeId::kString);
  for (const char* v : values) {
    col.Append(v == nullptr ? Value::Null() : Value::String(v));
  }
  return col;
}

TEST(ColumnStatsTest, EmptyColumn) {
  Column col("c", TypeId::kInteger);
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 0);
  EXPECT_EQ(stats.distinct_count, 0);
  EXPECT_FALSE(stats.verified_unique);
  EXPECT_FALSE(stats.min_value.has_value());
  EXPECT_FALSE(stats.max_value.has_value());
}

TEST(ColumnStatsTest, AllNulls) {
  Column col = MakeStringColumn({nullptr, nullptr});
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 2);
  EXPECT_EQ(stats.null_count, 2);
  EXPECT_EQ(stats.non_null_count, 0);
  EXPECT_EQ(stats.distinct_count, 0);
  EXPECT_FALSE(stats.verified_unique);
}

TEST(ColumnStatsTest, CountsAndExtremes) {
  Column col = MakeStringColumn({"banana", nullptr, "apple", "cherry", "apple"});
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.row_count, 5);
  EXPECT_EQ(stats.null_count, 1);
  EXPECT_EQ(stats.non_null_count, 4);
  EXPECT_EQ(stats.distinct_count, 3);
  EXPECT_FALSE(stats.verified_unique);
  EXPECT_EQ(*stats.min_value, "apple");
  EXPECT_EQ(*stats.max_value, "cherry");
}

TEST(ColumnStatsTest, VerifiedUnique) {
  Column col = MakeStringColumn({"a", "b", "c"});
  EXPECT_TRUE(ComputeColumnStats(col).verified_unique);
  Column dup = MakeStringColumn({"a", "b", "a"});
  EXPECT_FALSE(ComputeColumnStats(dup).verified_unique);
}

TEST(ColumnStatsTest, IntegerMinMaxIsLexicographic) {
  // Canonical order is lexicographic on strings: "10" < "9".
  Column col("c", TypeId::kInteger);
  col.Append(Value::Integer(9));
  col.Append(Value::Integer(10));
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(*stats.min_value, "10");
  EXPECT_EQ(*stats.max_value, "9");
}

TEST(ColumnStatsTest, SingleValue) {
  Column col = MakeStringColumn({"only"});
  ColumnStats stats = ComputeColumnStats(col);
  EXPECT_EQ(stats.distinct_count, 1);
  EXPECT_TRUE(stats.verified_unique);
  EXPECT_EQ(*stats.min_value, "only");
  EXPECT_EQ(*stats.max_value, "only");
}

TEST(ColumnStatsTest, ToStringMentionsKeyFields) {
  Column col = MakeStringColumn({"a", "b"});
  std::string s = ComputeColumnStats(col).ToString();
  EXPECT_NE(s.find("rows=2"), std::string::npos);
  EXPECT_NE(s.find("distinct=2"), std::string::npos);
  EXPECT_NE(s.find("unique"), std::string::npos);
}

}  // namespace
}  // namespace spider
