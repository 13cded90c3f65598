#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/datagen/schema_spec.h"
#include "src/discovery/accession.h"
#include "src/ind/session.h"
#include "src/storage/column_stats.h"
#include "tests/test_util.h"

namespace spider {
namespace {

using datagen::ColumnKind;
using datagen::ColumnSpec;
using datagen::GenerateCatalog;
using datagen::SchemaSpec;
using datagen::TableSpec;

ColumnSpec Key(const std::string& name, int64_t base = 1) {
  ColumnSpec spec;
  spec.name = name;
  spec.kind = ColumnKind::kSequentialKey;
  spec.key_base = base;
  return spec;
}

ColumnSpec Fk(const std::string& name, const std::string& table,
              const std::string& column, bool declare = true) {
  ColumnSpec spec;
  spec.name = name;
  spec.kind = ColumnKind::kForeignKey;
  spec.fk_table = table;
  spec.fk_column = column;
  spec.declare_fk = declare;
  return spec;
}

SchemaSpec ParentChildSpec() {
  SchemaSpec spec;
  spec.name = "pc";
  TableSpec parent;
  parent.name = "parent";
  parent.rows = 50;
  parent.columns = {Key("id", 1000)};
  TableSpec child;
  child.name = "child";
  child.rows = 200;
  child.columns = {Fk("parent_id", "parent", "id")};
  spec.tables = {parent, child};
  return spec;
}

TEST(SchemaSpecTest, GeneratesDeclaredShape) {
  auto catalog = GenerateCatalog(ParentChildSpec());
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ((*catalog)->table_count(), 2);
  EXPECT_EQ((*catalog)->FindTable("parent")->row_count(), 50);
  EXPECT_EQ((*catalog)->FindTable("child")->row_count(), 200);
  ASSERT_EQ((*catalog)->declared_foreign_keys().size(), 1u);
}

TEST(SchemaSpecTest, SequentialKeysAreUniqueAndBased) {
  auto catalog = GenerateCatalog(ParentChildSpec());
  ASSERT_TRUE(catalog.ok());
  const Column* id = (*catalog)->FindTable("parent")->FindColumn("id");
  ASSERT_NE(id, nullptr);
  EXPECT_TRUE(id->declared_unique());
  EXPECT_TRUE(ComputeColumnStats(*id).verified_unique);
  EXPECT_EQ(id->value(0).integer(), 1000);
  EXPECT_EQ(id->value(49).integer(), 1049);
}

TEST(SchemaSpecTest, ForeignKeysHoldInData) {
  auto catalog = GenerateCatalog(ParentChildSpec());
  ASSERT_TRUE(catalog.ok());
  const Column* dep = (*catalog)->FindTable("child")->FindColumn("parent_id");
  const Column* ref = (*catalog)->FindTable("parent")->FindColumn("id");
  EXPECT_TRUE(testing::NaiveIncluded(*dep, *ref));
}

TEST(SchemaSpecTest, DanglingFractionBreaksInclusion) {
  SchemaSpec spec = ParentChildSpec();
  spec.tables[1].columns[0].dangling_fraction = 0.1;
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  const Column* dep = (*catalog)->FindTable("child")->FindColumn("parent_id");
  const Column* ref = (*catalog)->FindTable("parent")->FindColumn("id");
  EXPECT_FALSE(testing::NaiveIncluded(*dep, *ref));
}

TEST(SchemaSpecTest, CoverageLimitsTargetPool) {
  SchemaSpec spec = ParentChildSpec();
  spec.tables[1].columns[0].fk_coverage = 0.2;  // only 10 of 50 parents
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  const Column* dep = (*catalog)->FindTable("child")->FindColumn("parent_id");
  ColumnStats stats = ComputeColumnStats(*dep);
  EXPECT_LE(stats.distinct_count, 10);
}

TEST(SchemaSpecTest, NullFractionProducesNulls) {
  SchemaSpec spec = ParentChildSpec();
  spec.tables[1].columns[0].null_fraction = 0.5;
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  const Column* dep = (*catalog)->FindTable("child")->FindColumn("parent_id");
  EXPECT_GT(dep->row_count() - dep->non_null_count(), 50);
  // NULLs do not break the IND over non-NULL values.
  const Column* ref = (*catalog)->FindTable("parent")->FindColumn("id");
  EXPECT_TRUE(testing::NaiveIncluded(*dep, *ref));
}

TEST(SchemaSpecTest, ForeignKeyBeforeTargetFails) {
  SchemaSpec spec;
  TableSpec child;
  child.name = "child";
  child.rows = 5;
  child.columns = {Fk("parent_id", "parent", "id")};
  spec.tables = {child};
  EXPECT_TRUE(GenerateCatalog(spec).status().IsInvalidArgument());
}

TEST(SchemaSpecTest, AccessionColumnsQualifyAsAccessionCandidates) {
  SchemaSpec spec;
  TableSpec entries;
  entries.name = "entries";
  entries.rows = 30;
  ColumnSpec acc;
  acc.name = "code";
  acc.kind = ColumnKind::kAccession;
  entries.columns = {acc};
  spec.tables = {entries};
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  ColumnStats stats = ComputeColumnStats(
      *(*catalog)->FindTable("entries")->FindColumn("code"));
  EXPECT_TRUE(stats.verified_unique);
  // Every code is four characters with a letter: the strict detector's
  // shape, met by all values.
  auto candidates = AccessionNumberDetector().Detect(**catalog);
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  ASSERT_EQ(candidates->size(), 1u);
  EXPECT_EQ((*candidates)[0].conforming_fraction, 1.0);
  EXPECT_EQ((*candidates)[0].min_length, 4);
  EXPECT_EQ((*candidates)[0].max_length, 4);
}

TEST(SchemaSpecTest, TextColumnsNeverLookLikeAccessions) {
  SchemaSpec spec;
  TableSpec t;
  t.name = "t";
  t.rows = 100;
  ColumnSpec text;
  text.name = "note";
  text.kind = ColumnKind::kText;
  t.columns = {text};
  spec.tables = {t};
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  size_t min_length = std::numeric_limits<size_t>::max();
  size_t max_length = 0;
  for (const Value& value :
       (*catalog)->FindTable("t")->FindColumn("note")->values()) {
    if (value.is_null()) continue;
    const size_t length = value.ToCanonicalString().size();
    min_length = std::min(min_length, length);
    max_length = std::max(max_length, length);
  }
  // Length spread beyond 20%: variable word counts guarantee it.
  EXPECT_GT(static_cast<double>(max_length - min_length) /
                static_cast<double>(max_length),
            0.2);
}

TEST(SchemaSpecTest, DeterministicUnderSeed) {
  SchemaSpec spec = ParentChildSpec();
  auto a = GenerateCatalog(spec);
  auto b = GenerateCatalog(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Column* ca = (*a)->FindTable("child")->FindColumn("parent_id");
  const Column* cb = (*b)->FindTable("child")->FindColumn("parent_id");
  for (int64_t r = 0; r < ca->row_count(); ++r) {
    EXPECT_EQ(ca->value(r), cb->value(r));
  }
}

TEST(SchemaSpecTest, EndToEndProfileFindsTheDeclaredFk) {
  auto catalog = GenerateCatalog(ParentChildSpec());
  ASSERT_TRUE(catalog.ok());
  SpiderSession session(**catalog);
  auto report = session.Run();
  ASSERT_TRUE(report.ok());
  auto satisfied = testing::ToSet(report->run.satisfied);
  EXPECT_TRUE(
      satisfied.contains(Ind{{"child", "parent_id"}, {"parent", "id"}}));
}

TEST(SchemaSpecTest, NumericRealCategoryKindsProduceExpectedTypes) {
  SchemaSpec spec;
  TableSpec t;
  t.name = "t";
  t.rows = 20;
  ColumnSpec numeric;
  numeric.name = "n";
  numeric.kind = ColumnKind::kNumeric;
  numeric.min_value = -5;
  numeric.max_value = 5;
  ColumnSpec real;
  real.name = "r";
  real.kind = ColumnKind::kReal;
  real.max_value = 100;
  ColumnSpec category;
  category.name = "c";
  category.kind = ColumnKind::kCategory;
  category.pool_size = 3;
  t.columns = {numeric, real, category};
  spec.tables = {t};
  auto catalog = GenerateCatalog(spec);
  ASSERT_TRUE(catalog.ok());
  const Table* table = (*catalog)->FindTable("t");
  EXPECT_EQ(table->FindColumn("n")->type(), TypeId::kInteger);
  EXPECT_EQ(table->FindColumn("r")->type(), TypeId::kDouble);
  EXPECT_EQ(table->FindColumn("c")->type(), TypeId::kString);
  for (const Value& v : table->FindColumn("n")->values()) {
    EXPECT_GE(v.integer(), -5);
    EXPECT_LE(v.integer(), 5);
  }
  ColumnStats stats = ComputeColumnStats(*table->FindColumn("c"));
  EXPECT_LE(stats.distinct_count, 3);
}

}  // namespace
}  // namespace spider
